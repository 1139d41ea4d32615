package router_test

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"golatest/internal/store"
	"golatest/internal/store/conformancetest"
	"golatest/internal/storenet"
	"golatest/internal/storenet/faults"
	"golatest/internal/storenet/router"
)

// corruptIn tampers with the digest's blob bytes in every given
// directory — all tiers the router could serve the blob from.
func corruptIn(t *testing.T, dirs ...string) func(digest string) {
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

// plantIn writes raw bytes into the member directory the
// resolve hook picks for the digest (its primary, or the first live
// preferred member).
func plantIn(t *testing.T, resolve func(digest string) string) func(digest string, data []byte) {
	return func(digest string, data []byte) {
		t.Helper()
		dir := resolve(digest)
		if err := os.WriteFile(filepath.Join(dir, digest+".json"), data, 0o644); err != nil {
			t.Fatalf("plant %s in %s: %v", digest, dir, err)
		}
	}
}

// sumCounters adds up the member stores' counters — where a planted
// blob's Corrupt count lands, whichever member read it.
func sumCounters(stores []*store.Store) func() store.Counters {
	return func() store.Counters {
		var total store.Counters
		for _, st := range stores {
			c := st.Counters()
			total.Hits += c.Hits
			total.Misses += c.Misses
			total.Corrupt += c.Corrupt
			total.Puts += c.Puts
		}
		return total
	}
}

func readBlobIn(resolve func(digest string) string) func(digest string) []byte {
	return func(digest string) []byte {
		data, err := os.ReadFile(filepath.Join(resolve(digest), digest+".json"))
		if err != nil {
			return nil
		}
		return data
	}
}

// TestRouterConformanceLocalMembers holds a three-member router over
// local directory stores (R=2) to the full Backend contract.
func TestRouterConformanceLocalMembers(t *testing.T) {
	conformancetest.Run(t, func(t *testing.T) conformancetest.Harness {
		members := make([]store.Backend, 3)
		dirs := make([]string, 3)
		stores := make([]*store.Store, 3)
		byLoc := map[string]string{}
		for i := range members {
			dir := t.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			members[i] = st
			dirs[i] = dir
			stores[i] = st
			byLoc[st.Location()] = dir
		}
		r, err := router.New(members, router.Options{Replication: 2})
		if err != nil {
			t.Fatal(err)
		}
		primaryDir := func(digest string) string { return byLoc[r.Replicas(digest)[0]] }
		return conformancetest.Harness{
			Backend:       r,
			Corrupt:       corruptIn(t, dirs...),
			Plant:         plantIn(t, primaryDir),
			ReadBlob:      readBlobIn(primaryDir),
			StoreCounters: sumCounters(stores),
		}
	})
}

// TestRouterConformanceDaemonMembers holds the production shape — a
// router over three cache-less authed clients, each fronting its own
// stored daemon — to the same contract.
func TestRouterConformanceDaemonMembers(t *testing.T) {
	conformancetest.Run(t, func(t *testing.T) conformancetest.Harness {
		members := make([]store.Backend, 3)
		dirs := make([]string, 3)
		stores := make([]*store.Store, 3)
		byLoc := map[string]string{}
		for i := range members {
			dir := t.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			auth := storenet.NewTokenSet().Grant("conf-token", storenet.ScopeAdmin, storenet.TokenLimits{})
			hs := httptest.NewServer(storenet.NewServerWith(st, storenet.ServerOptions{Auth: auth}))
			t.Cleanup(hs.Close)
			c, err := storenet.NewClient(hs.URL, storenet.ClientOptions{
				Token:        "conf-token",
				RetryBackoff: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			members[i] = c
			dirs[i] = dir
			stores[i] = st
			byLoc[c.Location()] = dir
		}
		r, err := router.New(members, router.Options{Replication: 2})
		if err != nil {
			t.Fatal(err)
		}
		primaryDir := func(digest string) string { return byLoc[r.Replicas(digest)[0]] }
		return conformancetest.Harness{
			Backend:       r,
			Corrupt:       corruptIn(t, dirs...),
			Plant:         plantIn(t, primaryDir),
			ReadBlob:      readBlobIn(primaryDir),
			StoreCounters: sumCounters(stores),
		}
	})
}

// TestRouterConformanceDeadMember is the degraded contract: one of the
// three members is dead for the whole suite (a permanently-killed fault
// wrapper), and the router must still satisfy every Backend obligation
// through the survivors. The outage is total and permanent, so routing
// decisions — in particular which member arbitrates each lease — stay
// deterministic across the suite.
func TestRouterConformanceDeadMember(t *testing.T) {
	conformancetest.Run(t, func(t *testing.T) conformancetest.Harness {
		members := make([]store.Backend, 3)
		dirs := make([]string, 3)
		stores := make([]*store.Store, 3)
		byLoc := map[string]string{}
		var deadLoc string
		for i := range members {
			dir := t.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			members[i] = st
			dirs[i] = dir
			stores[i] = st
			byLoc[st.Location()] = dir
			if i == 2 {
				f := faults.WrapBackend(st, faults.Plan{})
				f.Kill()
				members[i] = f
				deadLoc = f.Location()
			}
		}
		r, err := router.New(members, router.Options{Replication: 2})
		if err != nil {
			t.Fatal(err)
		}
		// The authoritative tier a planted blob must be readable from is
		// the first *live* preferred member — the dead one can neither
		// serve nor heal it.
		liveDir := func(digest string) string {
			for _, loc := range r.Replicas(digest) {
				if loc != deadLoc {
					return byLoc[loc]
				}
			}
			t.Fatalf("no live preferred member for %s", digest)
			return ""
		}
		return conformancetest.Harness{
			Backend:       r,
			Corrupt:       corruptIn(t, dirs...),
			Plant:         plantIn(t, liveDir),
			ReadBlob:      readBlobIn(liveDir),
			StoreCounters: sumCounters(stores),
		}
	})
}
