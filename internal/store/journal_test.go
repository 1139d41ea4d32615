package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func mustKey(t testing.TB, instance int, seed uint64) Key {
	t.Helper()
	k, err := KeyFor("a100", instance, seed, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestPutAppendsJournalOnly: a Put must cost one journal append, not a
// manifest.json rewrite — the snapshot only materialises at compaction.
func TestPutAppendsJournalOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(mustKey(t, i, uint64(40+i)), testResult()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); !os.IsNotExist(err) {
		t.Fatal("Put rewrote manifest.json; the index should live in the journal until compaction")
	}
	if fi, err := os.Stat(filepath.Join(dir, journalName)); err != nil || fi.Size() == 0 {
		t.Fatalf("no journal after Puts: %v", err)
	}

	// Open compacts: the journal folds into the snapshot and the fresh
	// handle sees every entry.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 3 {
		t.Fatalf("reopened Len = %d, want 3", s2.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("Open did not compact the journal into a snapshot: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, journalName)); !os.IsNotExist(err) {
		t.Fatal("compaction left the consumed journal behind")
	}
}

// TestTwoHandlesConvergeViaJournal is the cross-process shape: two Store
// handles on one directory append to the same journal, and the index
// converges — a third Open sees the union, and neither handle's
// compaction drops the other's records.
func TestTwoHandlesConvergeViaJournal(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb, kc := mustKey(t, 0, 42), mustKey(t, 1, 43), mustKey(t, 2, 44)
	if err := a.Put(ka, testResult()); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(kb, testResult()); err != nil {
		t.Fatal(err)
	}

	// b never indexed ka, but the blob is on disk: Get hits and indexes
	// it on the fly.
	if _, ok := b.Get(ka); !ok {
		t.Fatal("handle b missed handle a's blob")
	}
	if b.Len() != 2 {
		t.Fatalf("b.Len() = %d after cross-handle Get, want 2", b.Len())
	}

	// a compacts while b keeps appending: b's next record must survive
	// (the append detects the rotation and replays onto the fresh log).
	if err := a.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(kc, testResult()); err != nil {
		t.Fatal(err)
	}

	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("converged Len = %d, want 3 (journal lost a record)", c.Len())
	}
	for _, k := range []Key{ka, kb, kc} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("converged store missing %s", k)
		}
	}
}

// TestCompactionThreshold: with a tiny threshold every append compacts,
// and nothing is lost in the fold.
func TestCompactionThreshold(t *testing.T) {
	old := journalCompactBytes
	journalCompactBytes = 1
	defer func() { journalCompactBytes = old }()

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = mustKey(t, i, uint64(60+i))
		if err := s.Put(keys[i], testResult()); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("miss on %s after threshold compaction", k)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 5 {
		t.Fatalf("reopened Len = %d, want 5", s2.Len())
	}
}

// TestJournalToleratesTornTail: a crash mid-append leaves a torn final
// line; replay must keep every whole record and skip the tear.
func TestJournalToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(mustKey(t, 0, 42), testResult()); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(mustKey(t, 1, 43), testResult()); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"put","entry":{"digest":"torn-mid-`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("Len = %d after torn tail, want 2", s2.Len())
	}
}

// TestCrashedCompactorLeftoverFolds: a compactor that died after
// rotating the log leaves manifest.log.old; the next Open must fold it
// before anything else rotates over its name.
func TestCrashedCompactorLeftoverFolds(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(mustKey(t, 0, 42), testResult()); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: the live log is rotated but never folded.
	if err := os.Rename(filepath.Join(dir, journalName), filepath.Join(dir, journalOldName)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (rotated log dropped)", s2.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, journalOldName)); !os.IsNotExist(err) {
		t.Fatal("fold left manifest.log.old behind")
	}
}

// TestConcurrentStoreOps is the -race soak: goroutines interleave
// Put/Get/Index/Len on one handle while a tiny threshold forces
// compaction churn, and every key must survive into a fresh Open.
func TestConcurrentStoreOps(t *testing.T) {
	old := journalCompactBytes
	journalCompactBytes = 512
	defer func() { journalCompactBytes = old }()

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perW    = 6
	)
	res := testResult()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := mustKey(t, w, uint64(1000+w*perW+i))
				if err := s.Put(k, res); err != nil {
					errs <- fmt.Errorf("put %s: %w", k, err)
					return
				}
				if _, ok := s.Get(k); !ok {
					errs <- fmt.Errorf("miss on just-put %s", k)
					return
				}
				s.Index()
				s.Len()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.Len() != workers*perW {
		t.Fatalf("Len = %d, want %d", s.Len(), workers*perW)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != workers*perW {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), workers*perW)
	}
}

// TestCompactWithoutLiveLogKeepsPeerRecords: once a peer has folded the
// live log into the snapshot, a compaction that finds no live log must
// adopt that snapshot, not write its own (older) in-memory index over
// it. Writing it over dropped the peer's records — the rare loss behind
// TestTwoHandlesConcurrentPuts.
func TestCompactWithoutLiveLogKeepsPeerRecords(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := testResult()
	if err := a.Put(mustKey(t, 0, 3001), res); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(mustKey(t, 1, 3002), res); err != nil {
		t.Fatal(err)
	}
	// a folds both records and leaves no live log behind.
	if err := a.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("b's index after compaction = %d entries, want 2 (peer's record adopted)", b.Len())
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2 (a record was lost)", reopened.Len())
	}
}

// TestTwoHandlesConcurrentPuts: disjoint key sets written through two
// handles racing on one directory must union cleanly — the append-only
// journal has no lost-update window.
func TestTwoHandlesConcurrentPuts(t *testing.T) {
	old := journalCompactBytes
	journalCompactBytes = 512
	defer func() { journalCompactBytes = old }()

	dir := t.TempDir()
	const perHandle = 10
	res := testResult()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for h := 0; h < 2; h++ {
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h int, st *Store) {
			defer wg.Done()
			for i := 0; i < perHandle; i++ {
				if err := st.Put(mustKey(t, h, uint64(2000+h*perHandle+i)), res); err != nil {
					errs <- err
					return
				}
			}
		}(h, st)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	merged, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 2*perHandle {
		t.Fatalf("merged Len = %d, want %d (concurrent writers lost index entries)",
			merged.Len(), 2*perHandle)
	}
}
