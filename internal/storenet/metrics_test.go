package storenet

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRequestMetricsBucketsAndQuantiles(t *testing.T) {
	m := newRequestMetrics()
	if got := m.quantileNs(0.5); got != 0 {
		t.Fatalf("empty quantile = %d, want 0", got)
	}

	// Nine fast observations and one slow one: p50 lands in the bucket
	// holding 50µs (upper bound 100µs) and p99 in the one holding 2s
	// (upper bound 2.5s).
	for i := 0; i < 9; i++ {
		m.observe("GET /v1/blobs/{digest}", http.StatusOK, 50*time.Microsecond)
	}
	m.observe("PUT /v1/blobs/{digest}", http.StatusOK, 2*time.Second)

	if got, want := m.quantileNs(0.5), int64(100_000); got != want {
		t.Errorf("p50 = %d ns, want %d", got, want)
	}
	if got, want := m.quantileNs(0.99), int64(2_500_000_000); got != want {
		t.Errorf("p99 = %d ns, want %d", got, want)
	}

	// An observation past the last bound is clamped to it, not lost.
	m2 := newRequestMetrics()
	m2.observe("x", http.StatusOK, time.Minute)
	if got, want := m2.quantileNs(0.5), int64(10*time.Second); got != want {
		t.Errorf("over-range quantile = %d ns, want %d", got, want)
	}
}

func TestRequestMetricsPromOutput(t *testing.T) {
	m := newRequestMetrics()
	m.observe("GET /v1/stats", http.StatusOK, 50*time.Microsecond)
	m.observe("GET /v1/stats", http.StatusOK, 50*time.Microsecond)
	m.observe("GET /v1/stats", http.StatusUnauthorized, 10*time.Microsecond)
	m.observe("PUT /v1/blobs/{digest}", http.StatusCreated, 3*time.Millisecond)

	var sb strings.Builder
	m.writeProm(&sb)
	out := sb.String()

	for _, want := range []string{
		"# TYPE stored_requests_total counter",
		`stored_requests_total{endpoint="GET /v1/stats",code="200"} 2`,
		`stored_requests_total{endpoint="GET /v1/stats",code="401"} 1`,
		`stored_requests_total{endpoint="PUT /v1/blobs/{digest}",code="201"} 1`,
		"# TYPE stored_request_duration_seconds histogram",
		// Cumulative ladder: the 10µs obs is ≤0.0001, both 50µs obs join
		// it there, so every le from 0.0001 up reads 3.
		`stored_request_duration_seconds_bucket{endpoint="GET /v1/stats",le="0.0001"} 3`,
		`stored_request_duration_seconds_bucket{endpoint="GET /v1/stats",le="+Inf"} 3`,
		`stored_request_duration_seconds_count{endpoint="GET /v1/stats"} 3`,
		`stored_request_duration_seconds_bucket{endpoint="PUT /v1/blobs/{digest}",le="0.0025"} 0`,
		`stored_request_duration_seconds_bucket{endpoint="PUT /v1/blobs/{digest}",le="0.005"} 1`,
		`stored_request_duration_seconds_count{endpoint="PUT /v1/blobs/{digest}"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q\n--- got ---\n%s", want, out)
		}
	}

	// Endpoints must render sorted so scrapes are diffable.
	if gi, pi := strings.Index(out, `endpoint="GET /v1/stats"`), strings.Index(out, `endpoint="PUT /v1/blobs/{digest}"`); gi > pi {
		t.Errorf("endpoints not sorted: GET at %d after PUT at %d", gi, pi)
	}
}

// TestMetricsEndpoint scrapes a live server and checks the exposition:
// store gauges/counters from Stats(), lease churn, and the
// per-endpoint series the ServeHTTP middleware recorded — including
// the scrape itself.
func TestMetricsEndpoint(t *testing.T) {
	st, hs := newDaemon(t)
	base := hs.URL
	k := testKey(t, 1)
	if err := st.Put(k, testResult(1)); err != nil {
		t.Fatal(err)
	}

	// Generate traffic the scrape should report: one hit, one miss.
	for _, p := range []string{
		"/v1/blobs/" + k.Digest,
		"/v1/blobs/" + testKey(t, 2).Digest,
	} {
		resp, err := http.Get(base + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want prometheus text v0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)

	for _, want := range []string{
		"stored_blobs 1\n",
		"stored_store_hits_total 1\n",
		"stored_store_misses_total 1\n",
		"stored_store_puts_total 1\n",
		"stored_leases_acquired_total 0\n",
		`stored_requests_total{endpoint="GET /v1/blobs/{digest}",code="200"} 1`,
		`stored_requests_total{endpoint="GET /v1/blobs/{digest}",code="404"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestMetricsUnmatchedRoute pins the label unmatched requests land
// under, so dashboards can alert on scans/typos without a cardinality
// explosion from raw paths.
func TestMetricsUnmatchedRoute(t *testing.T) {
	st, hs := newDaemon(t)
	base := hs.URL
	_ = st
	resp, err := http.Get(base + "/v1/nonsense/route")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	if want := `stored_requests_total{endpoint="/",code="404"}`; !strings.Contains(string(body), want) {
		// The catch-all "/" route owns unknown paths; if routing ever
		// changes this pins where they show up.
		if !strings.Contains(string(body), `code="404"`) {
			t.Errorf("scrape lost the 404 for an unmatched route:\n%s", body)
		}
	}
}

func TestStatusWriterDefaultsTo200(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec, code: http.StatusOK}
	fmt.Fprint(sw, "ok") // implicit WriteHeader(200)
	if sw.code != http.StatusOK {
		t.Errorf("code = %d, want 200", sw.code)
	}
	sw.WriteHeader(http.StatusTeapot)
	if sw.code != http.StatusTeapot {
		t.Errorf("code = %d, want 418", sw.code)
	}
}
