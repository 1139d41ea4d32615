// Package obs is the repo's zero-dependency observability kernel: a
// lightweight span recorder (Tracer/Span), W3C traceparent propagation
// for correlating one sweep's requests across processes, and a Chrome
// trace_event exporter so a whole fleet sweep is viewable in Perfetto.
//
// Design constraints, in order:
//
//   - Tracing off must cost nothing. A nil *Tracer and a nil *Span are
//     fully usable no-ops: StartSpan on a nil Tracer returns a nil
//     Span, and every Span method on a nil receiver returns
//     immediately. Call sites thread a possibly-nil tracer and never
//     branch (TestNilTracerZeroAllocs pins the disabled path at zero
//     allocations).
//   - Tracing on must be cheap on the hot path. Spans come from a
//     sync.Pool and retain their event/attr backing arrays across
//     reuse; timestamps are offsets from a single monotonic clock
//     reading taken at Tracer construction, so recording an event is
//     one clock read and one append.
//   - Deterministic in tests. Trace and span IDs come from a seeded
//     splitmix64 stream (Options.Seed); the clock is injectable.
//
// The package deliberately does not know about contexts, HTTP, or any
// specific tier — storenet carries SpanContext over the wire as a
// traceparent header, fleet builds the sweep span tree, and the
// TraceContextSetter interface lets a sweep hand its root context to a
// store client without the two packages importing each other's types
// beyond this one.
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a W3C trace-id: 16 bytes, non-zero when valid.
type TraceID [16]byte

// SpanID is a W3C parent-id: 8 bytes, non-zero when valid.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as lowercase hex (the wire form).
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as lowercase hex (the wire form).
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext identifies one span within one trace — exactly the
// information that crosses a process boundary.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether the context carries a usable trace identity.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Traceparent renders the context as a W3C traceparent header value,
// version 00, sampled flag set ("00-<trace-id>-<parent-id>-01").
// Returns "" for an invalid context so callers can skip the header.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	hex.Encode(b[3:35], sc.TraceID[:])
	b[35] = '-'
	hex.Encode(b[36:52], sc.SpanID[:])
	b[52], b[53], b[54] = '-', '0', '1'
	return string(b[:])
}

// ParseTraceparent parses a W3C traceparent header value. It accepts
// any version byte except ff, requires the fixed 00-style layout, and
// rejects all-zero IDs, per the spec. The trace-flags byte is parsed
// but ignored — this recorder treats every propagated trace as
// sampled.
func ParseTraceparent(s string) (SpanContext, bool) {
	var sc SpanContext
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, false
	}
	if !isHex(s[0:2]) || s[0:2] == "ff" || !isHex(s[53:55]) {
		return sc, false
	}
	if len(s) > 55 && s[55] != '-' { // future versions append "-..." fields
		return sc, false
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(s[36:52])); err != nil {
		return SpanContext{}, false
	}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// TraceContextSetter is implemented by carriers (storenet.Client) that
// want their outbound requests correlated with an ambient trace — a
// fleet sweep sets its root span's context on the store it was given.
type TraceContextSetter interface {
	SetTraceContext(SpanContext)
}

// Ambient is a possibly-nil Tracer plus the ambient parent its spans
// start under: a carrier's TraceContextSetter state. Concurrency-safe.
type Ambient struct {
	Tracer *Tracer
	parent atomic.Pointer[SpanContext]
}

// SetTraceContext installs sc as the parent; the zero context clears it.
func (a *Ambient) SetTraceContext(sc SpanContext) {
	if sc.Valid() {
		a.parent.Store(&sc)
	} else {
		a.parent.Store(nil)
	}
}

// Parent returns the ambient parent context, zero when none is set.
func (a *Ambient) Parent() SpanContext {
	if p := a.parent.Load(); p != nil {
		return *p
	}
	return SpanContext{}
}

// StartSpan opens a span under the parent; nil, free, when tracing is off.
func (a *Ambient) StartSpan(name string) *Span {
	if a.Tracer == nil {
		return nil
	}
	return a.Tracer.StartSpan(name, a.Parent())
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Event is one timestamped point annotation on a span. At is an
// offset from the tracer's construction instant (monotonic).
type Event struct {
	Name string
	At   time.Duration
}

// Options configures a Tracer.
type Options struct {
	// Seed seeds the splitmix64 ID stream, making trace and span IDs
	// (and therefore traceparent values and exported JSON) reproducible
	// run-to-run. Zero draws a random seed from the OS.
	Seed uint64
	// Clock returns the current offset from "tracer start"; nil uses
	// the real monotonic clock. Injectable for deterministic timing in
	// tests.
	Clock func() time.Duration
}

// Tracer records spans. The zero value is not usable; construct with
// New. A nil *Tracer is a valid always-off tracer.
type Tracer struct {
	idState atomic.Uint64
	clock   func() time.Duration

	mu       sync.Mutex
	finished []*Span

	pool sync.Pool
}

// New constructs a Tracer. See Options for determinism knobs.
func New(opts Options) *Tracer {
	seed := opts.Seed
	if seed == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			seed = binary.LittleEndian.Uint64(b[:])
		}
		if seed == 0 {
			seed = 0x9e3779b97f4a7c15
		}
	}
	clock := opts.Clock
	if clock == nil {
		base := time.Now()
		clock = func() time.Duration { return time.Since(base) }
	}
	t := &Tracer{clock: clock}
	t.idState.Store(seed)
	t.pool.New = func() any { return new(Span) }
	return t
}

// Enabled reports whether spans will actually be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// nextID draws the next 64-bit ID from the seeded splitmix64 stream
// (the same generator the storenet client uses for retry jitter).
func (t *Tracer) nextID() uint64 {
	for {
		z := t.idState.Add(0x9e3779b97f4a7c15)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if z != 0 { // all-zero IDs are invalid on the wire
			return z
		}
	}
}

// StartRoot opens a span at the root of a brand-new trace.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	sc := SpanContext{}
	binary.BigEndian.PutUint64(sc.TraceID[:8], t.nextID())
	binary.BigEndian.PutUint64(sc.TraceID[8:], t.nextID())
	binary.BigEndian.PutUint64(sc.SpanID[:], t.nextID())
	return t.start(name, sc, SpanID{})
}

// StartSpan opens a child span under parent. An invalid parent yields
// a new root trace, so callers never need to special-case "no ambient
// trace yet".
func (t *Tracer) StartSpan(name string, parent SpanContext) *Span {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.StartRoot(name)
	}
	sc := SpanContext{TraceID: parent.TraceID}
	binary.BigEndian.PutUint64(sc.SpanID[:], t.nextID())
	return t.start(name, sc, parent.SpanID)
}

func (t *Tracer) start(name string, sc SpanContext, parent SpanID) *Span {
	s := t.pool.Get().(*Span)
	s.tr = t
	s.name = name
	s.sc = sc
	s.parent = parent
	s.tid = 0
	s.start = t.clock()
	s.end = 0
	s.ended = false
	s.events = s.events[:0]
	s.attrs = s.attrs[:0]
	return s
}

// Reset discards every finished span and returns them (with their
// event/attr backing arrays) to the pool. Live spans are unaffected —
// they re-enter the finished list when ended. Used between benchmark
// iterations and between sweeps sharing one tracer.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	finished := t.finished
	t.finished = nil
	t.mu.Unlock()
	for _, s := range finished {
		s.tr = nil
		t.pool.Put(s)
	}
}

// SpanRecord is an immutable copy of one finished span, for tests and
// renderers. Events and Attrs alias the span's backing arrays and are
// only valid until the next Reset.
type SpanRecord struct {
	Name    string
	Context SpanContext
	Parent  SpanID
	TID     int
	Start   time.Duration
	End     time.Duration
	Events  []Event
	Attrs   []Attr
}

// Snapshot returns every finished span in end order.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.finished))
	for _, s := range t.finished {
		out = append(out, SpanRecord{
			Name:    s.name,
			Context: s.sc,
			Parent:  s.parent,
			TID:     s.tid,
			Start:   s.start,
			End:     s.end,
			Events:  s.events,
			Attrs:   s.attrs,
		})
	}
	return out
}

// Span is one timed operation. Spans are single-goroutine: the
// goroutine that starts a span owns it until End. A nil *Span is a
// valid no-op. After End the span belongs to the tracer; callers must
// not touch it again.
type Span struct {
	tr     *Tracer
	name   string
	sc     SpanContext
	parent SpanID
	tid    int
	start  time.Duration
	end    time.Duration
	events []Event
	attrs  []Attr
	ended  bool
}

// Context returns the span's identity (what goes on the wire).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetTID assigns the Chrome trace "thread" lane the span renders in
// (fleet uses shard index + 1; 0 is the root lane).
func (s *Span) SetTID(tid int) {
	if s != nil {
		s.tid = tid
	}
}

// SetAttr annotates the span. Value building costs even when tracing
// is off, so guard expensive formatting with `if span != nil`.
func (s *Span) SetAttr(key, value string) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
}

// Event records a named instant on the span's timeline.
func (s *Span) Event(name string) {
	if s == nil {
		return
	}
	s.events = append(s.events, Event{Name: name, At: s.tr.clock()})
}

// End closes the span and hands it to the tracer for export. Safe to
// call once; later calls are ignored.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.end = s.tr.clock()
	t := s.tr
	t.mu.Lock()
	t.finished = append(t.finished, s)
	t.mu.Unlock()
}
