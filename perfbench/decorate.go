package main

import (
	"sync"
	"time"

	"golatest/internal/core"
	"golatest/internal/obs"
	"golatest/internal/store"
	"golatest/internal/storenet"
	"golatest/internal/storenet/router"
)

// timings collects call durations (seconds) by operation for one
// decorated layer. Safe for concurrent use: fleet workers call through
// the decorators in parallel.
type timings struct {
	mu  sync.Mutex
	ops map[string][]float64
}

func newTimings() *timings { return &timings{ops: map[string][]float64{}} }

// observe records one call of op that started at start; use it as
// `defer t.observe(op, time.Now())`.
func (t *timings) observe(op string, start time.Time) {
	d := time.Since(start).Seconds()
	t.mu.Lock()
	t.ops[op] = append(t.ops[op], d)
	t.mu.Unlock()
}

// samples returns the durations of the named operations, concatenated.
func (t *timings) samples(ops ...string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, op := range ops {
		out = append(out, t.ops[op]...)
	}
	return out
}

// total returns the summed duration and the call count over every
// operation.
func (t *timings) total() (sum float64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ds := range t.ops {
		for _, d := range ds {
			sum += d
		}
		n += len(ds)
	}
	return sum, n
}

// timedBackend times every store.Backend call of the backend it wraps.
// It is the base of the decorators below, which add exactly the
// optional interfaces their inner backend implements: fleet.Sweep and
// the router type-assert those (store.Resilient picks the store-error
// policy, store.Replicated the replication accounting, the validated
// getter/putter the verbatim-bytes paths, obs.TraceContextSetter trace
// propagation, router.HealthReporter routing), so a decorator that
// hid one or faked one would change what the traced run measures.
type timedBackend struct {
	inner store.Backend
	t     *timings
}

func (d *timedBackend) Location() string { return d.inner.Location() }

func (d *timedBackend) Get(k store.Key) (*core.Result, bool) {
	defer d.t.observe("get", time.Now())
	return d.inner.Get(k)
}

func (d *timedBackend) Put(k store.Key, res *core.Result) error {
	defer d.t.observe("put", time.Now())
	return d.inner.Put(k, res)
}

func (d *timedBackend) Has(k store.Key) bool {
	defer d.t.observe("has", time.Now())
	return d.inner.Has(k)
}

func (d *timedBackend) Index() []store.ManifestEntry {
	defer d.t.observe("index", time.Now())
	return d.inner.Index()
}

func (d *timedBackend) Len() int {
	defer d.t.observe("len", time.Now())
	return d.inner.Len()
}

func (d *timedBackend) Counters() store.Counters { return d.inner.Counters() }

func (d *timedBackend) TryAcquire(digest, owner string, ttl time.Duration) (store.LeaseHandle, bool, error) {
	defer d.t.observe("acquire", time.Now())
	return d.inner.TryAcquire(digest, owner, ttl)
}

func (d *timedBackend) LeaseHolder(digest string) (string, bool) {
	defer d.t.observe("holder", time.Now())
	return d.inner.LeaseHolder(digest)
}

func (d *timedBackend) GC(p store.GCPolicy) (store.GCStats, error) {
	defer d.t.observe("gc", time.Now())
	return d.inner.GC(p)
}

// timedClient decorates a storenet.Client.
type timedClient struct {
	timedBackend
	c *storenet.Client
}

func timeClient(c *storenet.Client, t *timings) *timedClient {
	return &timedClient{timedBackend{c, t}, c}
}

func (d *timedClient) CanDegrade() bool                   { return d.c.CanDegrade() }
func (d *timedClient) Resilience() store.ResilienceStats  { return d.c.Resilience() }
func (d *timedClient) Reconcile() (int, error)            { return d.c.Reconcile() }
func (d *timedClient) SetTraceContext(sc obs.SpanContext) { d.c.SetTraceContext(sc) }
func (d *timedClient) Healthy() bool                      { return d.c.Healthy() }

func (d *timedClient) GetValidated(digest string) (*store.ValidatedBlob, bool) {
	defer d.t.observe("get", time.Now())
	return d.c.GetValidated(digest)
}

func (d *timedClient) PutValidated(vb *store.ValidatedBlob) error {
	defer d.t.observe("put", time.Now())
	return d.c.PutValidated(vb)
}

// timedRouter decorates a replicating router.
type timedRouter struct {
	timedBackend
	r *router.Router
}

func timeRouter(r *router.Router, t *timings) *timedRouter {
	return &timedRouter{timedBackend{r, t}, r}
}

func (d *timedRouter) CanDegrade() bool                         { return d.r.CanDegrade() }
func (d *timedRouter) Resilience() store.ResilienceStats        { return d.r.Resilience() }
func (d *timedRouter) Reconcile() (int, error)                  { return d.r.Reconcile() }
func (d *timedRouter) ReplicationStats() store.ReplicationStats { return d.r.ReplicationStats() }
func (d *timedRouter) SetTraceContext(sc obs.SpanContext)       { d.r.SetTraceContext(sc) }
