package storenet

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"golatest/internal/store"
	"golatest/internal/store/conformancetest"
)

// conformanceServer starts an authed loopback daemon — conformance
// runs against the production (auth-enabled) configuration, so the
// middleware is proven contract-transparent, not just tested in
// isolation.
func conformanceServer(t *testing.T) (st *store.Store, url string) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	auth := NewTokenSet().Grant("conf-token", ScopeAdmin, TokenLimits{})
	hs := httptest.NewServer(NewServerWith(st, ServerOptions{Auth: auth}))
	t.Cleanup(hs.Close)
	return st, hs.URL
}

func corruptBlobFiles(t *testing.T, dirs ...string) func(digest string) {
	return func(digest string) {
		t.Helper()
		for _, dir := range dirs {
			if err := os.WriteFile(filepath.Join(dir, digest+".json"),
				[]byte("tampered: not a blob container"), 0o644); err != nil {
				t.Fatalf("corrupt %s in %s: %v", digest, dir, err)
			}
		}
	}
}

// plantBlobFile writes raw bytes into the daemon's store directory —
// the authoritative tier an old deployment's blobs actually live in.
func plantBlobFile(t *testing.T, dir string) func(digest string, data []byte) {
	return func(digest string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, digest+".json"), data, 0o644); err != nil {
			t.Fatalf("plant %s in %s: %v", digest, dir, err)
		}
	}
}

// readBlobFile reads the current authoritative-tier bytes of a
// digest's blob (nil if absent).
func readBlobFile(t *testing.T, dir string) func(digest string) []byte {
	return func(digest string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, digest+".json"))
		if err != nil {
			return nil
		}
		return data
	}
}

// TestBackendConformanceLoopbackClient holds the cache-less network
// client (through a live authed daemon) to the same contract as a
// local directory.
func TestBackendConformanceLoopbackClient(t *testing.T) {
	conformancetest.Run(t, func(t *testing.T) conformancetest.Harness {
		remote, url := conformanceServer(t)
		c, err := NewClient(url, ClientOptions{
			Token:        "conf-token",
			RetryBackoff: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return conformancetest.Harness{
			Backend:       c,
			Corrupt:       corruptBlobFiles(t, remote.Dir()),
			Plant:         plantBlobFile(t, remote.Dir()),
			ReadBlob:      readBlobFile(t, remote.Dir()),
			StoreCounters: remote.Counters,
		}
	})
}

// TestBackendConformanceTieredClient runs the suite against the
// write-through tiered client (local cache over the authed daemon) —
// the configuration fleets actually deploy. Corruption tampers both
// tiers, because the contract's corrupt-blob promise must hold even
// when every copy is bad.
func TestBackendConformanceTieredClient(t *testing.T) {
	conformancetest.Run(t, func(t *testing.T) conformancetest.Harness {
		remote, url := conformanceServer(t)
		cache, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClient(url, ClientOptions{
			Cache:        cache,
			Token:        "conf-token",
			RetryBackoff: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return conformancetest.Harness{
			Backend:       c,
			Corrupt:       corruptBlobFiles(t, remote.Dir(), cache.Dir()),
			Plant:         plantBlobFile(t, remote.Dir()),
			ReadBlob:      readBlobFile(t, remote.Dir()),
			StoreCounters: remote.Counters,
		}
	})
}
