package storenet

import (
	"fmt"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"golatest/internal/store"
)

// TestStoredLoadConcurrent hammers one authed daemon with many
// concurrent clients running a mixed Get/Put/lease workload and then
// audits the store for lost writes: every key any client successfully
// Put must be present and validate. It doubles as the latency
// benchmark — the p50/p99 lines it logs are scraped by
// scripts/bench_smoke.sh into BENCH_campaign.json.
//
// STORED_LOAD_CLIENTS overrides the client count (CI runs it reduced;
// the default is the full 100-tenant slam).
func TestStoredLoadConcurrent(t *testing.T) {
	clients := 100
	if v := os.Getenv("STORED_LOAD_CLIENTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("STORED_LOAD_CLIENTS=%q: want a positive integer", v)
		}
		clients = n
	}
	const opsPerClient = 10

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	auth := NewTokenSet()
	for i := 0; i < clients; i++ {
		// Every tenant gets its own write-scope token: this test
		// measures correctness and latency under contention, not auth
		// (auth_test.go owns the 401/403 paths).
		auth.Grant(fmt.Sprintf("tenant-%03d", i), ScopeWrite, TokenLimits{})
	}
	srv := NewServerWith(st, ServerOptions{Auth: auth})
	hs := httptest.NewServer(srv)
	defer hs.Close()

	// Precompute every key and result up front — store.KeyFor needs
	// t.Fatal on error, which must not run inside worker goroutines.
	type work struct {
		key store.Key
	}
	jobs := make([][]work, clients)
	for i := range jobs {
		jobs[i] = make([]work, opsPerClient)
		for j := range jobs[i] {
			jobs[i][j] = work{key: testKey(t, i*opsPerClient+j)}
		}
	}
	contended := testKey(t, clients*opsPerClient) // one digest every client fights over

	errs := make(chan error, clients*opsPerClient)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := NewClient(hs.URL, ClientOptions{
				Token:        fmt.Sprintf("tenant-%03d", i),
				RetryBackoff: time.Millisecond,
			})
			if err != nil {
				errs <- fmt.Errorf("client %d: %v", i, err)
				return
			}
			owner := fmt.Sprintf("worker-%03d", i)
			for j, w := range jobs[i] {
				instance := i*opsPerClient + j
				if err := c.Put(w.key, testResult(instance)); err != nil {
					errs <- fmt.Errorf("client %d put %d: %v", i, j, err)
					continue
				}
				// Read back through the network path; a fresh write must
				// be a validated hit, never a miss.
				got, ok := c.Get(w.key)
				if !ok {
					errs <- fmt.Errorf("client %d: lost read-after-write for op %d", i, j)
				} else if got.DeviceName != testResult(instance).DeviceName {
					errs <- fmt.Errorf("client %d op %d: got %q", i, j, got.DeviceName)
				}
				// Every third op also contends on one shared lease; the
				// server must arbitrate exactly-once semantics under load.
				if j%3 == 0 {
					lease, ok, err := c.TryAcquire(contended.Digest, owner, time.Minute)
					if err != nil {
						errs <- fmt.Errorf("client %d acquire: %v", i, err)
					} else if ok {
						if err := lease.Release(); err != nil {
							errs <- fmt.Errorf("client %d release: %v", i, err)
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Zero lost writes: the store must hold exactly one blob per
	// successful Put, and each must validate back to its result.
	if got, want := st.Len(), clients*opsPerClient; got != want {
		t.Errorf("store holds %d blobs, want %d (lost writes)", got, want)
	}
	for i := 0; i < clients; i++ {
		for j := 0; j < opsPerClient; j++ {
			w := jobs[i][j]
			res, ok := st.Get(w.key)
			if !ok {
				t.Errorf("blob %d/%d lost", i, j)
			} else if want := testResult(i*opsPerClient + j).DeviceName; res.DeviceName != want {
				t.Errorf("blob %d/%d: device %q, want %q", i, j, res.DeviceName, want)
			}
		}
	}

	// Latency summary from the /metrics histograms; bench_smoke.sh greps
	// these exact tokens.
	t.Logf("stored_load_clients=%d stored_p50_ns=%d stored_p99_ns=%d",
		clients, srv.LatencyQuantileNs(0.5), srv.LatencyQuantileNs(0.99))
}
