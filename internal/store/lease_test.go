package store

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLeaseExclusive(t *testing.T) {
	s := openStore(t)
	const digest = "d1"
	l, ok, err := s.TryAcquire(digest, "alpha", time.Minute)
	if err != nil || !ok {
		t.Fatalf("first claim: ok=%v err=%v", ok, err)
	}
	if l.Stolen() {
		t.Fatal("uncontended claim reported stolen")
	}
	if _, ok, err := s.TryAcquire(digest, "beta", time.Minute); err != nil || ok {
		t.Fatalf("second owner claimed a held lease: ok=%v err=%v", ok, err)
	}
	if owner, held := s.LeaseHolder(digest); !held || owner != "alpha" {
		t.Fatalf("holder = %q/%v, want alpha/true", owner, held)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if _, held := s.LeaseHolder(digest); held {
		t.Fatal("lease held after release")
	}
	if _, ok, err := s.TryAcquire(digest, "beta", time.Minute); err != nil || !ok {
		t.Fatalf("claim after release: ok=%v err=%v", ok, err)
	}
}

// TestLeaseSameOwnerIsBusy: claims are strictly exclusive — a live
// lease is busy even for its own owner id, so two processes configured
// with the same owner string still partition work instead of silently
// both "winning" every shard (and Release-ing each other's leases).
func TestLeaseSameOwnerIsBusy(t *testing.T) {
	s := openStore(t)
	if _, ok, err := s.TryAcquire("d1", "alpha", time.Minute); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s.TryAcquire("d1", "alpha", time.Minute); err != nil || ok {
		t.Fatalf("same-owner claim of a live lease: ok=%v err=%v, want busy", ok, err)
	}
	// A restarted same-owner process re-claims through the ordinary
	// expiry-steal path.
	if _, ok, err := s.TryAcquire("d2", "beta", 5*time.Millisecond); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(20 * time.Millisecond)
	l, ok, err := s.TryAcquire("d2", "beta", time.Minute)
	if err != nil || !ok || !l.Stolen() {
		t.Fatalf("restarted owner could not reclaim its expired lease: ok=%v err=%v", ok, err)
	}
}

func TestLeaseStealExpired(t *testing.T) {
	s := openStore(t)
	if _, ok, err := s.TryAcquire("d1", "dead", 5*time.Millisecond); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(20 * time.Millisecond)
	l, ok, err := s.TryAcquire("d1", "alive", time.Minute)
	if err != nil || !ok {
		t.Fatalf("steal of expired lease failed: ok=%v err=%v", ok, err)
	}
	if !l.Stolen() {
		t.Fatal("takeover of an expired lease not reported as stolen")
	}
	if owner, held := s.LeaseHolder("d1"); !held || owner != "alive" {
		t.Fatalf("holder after steal = %q/%v", owner, held)
	}
}

// TestLeaseStealGarbage: an unparseable lease file is held until its
// mtime plus the grace period — it may be a writer caught mid-write —
// and stealable after.
func TestLeaseStealGarbage(t *testing.T) {
	s := openStore(t)
	path := filepath.Join(s.Dir(), "d1"+leaseSuffix)
	if err := os.WriteFile(path, []byte("not a lease"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.TryAcquire("d1", "alpha", time.Minute); err != nil || ok {
		t.Fatalf("fresh garbage lease was claimable: ok=%v err=%v", ok, err)
	}
	if _, held := s.LeaseHolder("d1"); !held {
		t.Fatal("fresh garbage lease reported unheld")
	}
	past := time.Now().Add(-2 * unreadableLeaseGrace)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
	l, ok, err := s.TryAcquire("d1", "alpha", time.Minute)
	if err != nil || !ok || !l.Stolen() {
		t.Fatalf("stale garbage lease not stolen: ok=%v stolen=%v err=%v", ok, l != nil && l.Stolen(), err)
	}
}

// TestLeasePublishWindowIsExclusive pins the torn-read fix: while one
// claimant is paused between writing its lease and publishing it, a
// second claimant runs to completion. Exactly one of them may win, and
// neither may count the other's lease as stolen. When a lease was
// created empty and filled afterwards, the second claimant read the
// empty file, stole it, and both won.
func TestLeasePublishWindowIsExclusive(t *testing.T) {
	s := openStore(t)
	paused := make(chan struct{})
	resume := make(chan struct{})
	var calls atomic.Int32
	leasePublishPause = func() {
		if calls.Add(1) == 1 {
			close(paused)
			<-resume
		}
	}
	defer func() { leasePublishPause = func() {} }()

	type claim struct {
		l   LeaseHandle
		ok  bool
		err error
	}
	slow := make(chan claim, 1)
	go func() {
		l, ok, err := s.TryAcquire("d1", "slow", time.Minute)
		slow <- claim{l, ok, err}
	}()
	select {
	case <-paused:
	case sc := <-slow:
		t.Fatalf("slow claim finished without reaching the publish window: %+v", sc)
	}
	fl, fok, ferr := s.TryAcquire("d1", "fast", time.Minute)
	close(resume)
	sc := <-slow

	if ferr != nil || sc.err != nil {
		t.Fatalf("claim errors: fast=%v slow=%v", ferr, sc.err)
	}
	if fok == sc.ok {
		t.Fatalf("fast won=%v, slow won=%v: want exactly one winner", fok, sc.ok)
	}
	for _, l := range []LeaseHandle{fl, sc.l} {
		if l != nil && l.Stolen() {
			t.Fatal("a live lease was stolen")
		}
	}
	owner, held := s.LeaseHolder("d1")
	if want := map[bool]string{true: "fast", false: "slow"}[fok]; !held || owner != want {
		t.Fatalf("holder = %q/%v, want %q", owner, held, want)
	}
	// No staging file outlives a claim.
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			t.Fatalf("staging file %s left behind", de.Name())
		}
	}
}

func TestLeaseRenewExtends(t *testing.T) {
	s := openStore(t)
	l, ok, err := s.TryAcquire("d1", "alpha", 40*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(25 * time.Millisecond)
	if err := l.Renew(40 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(25 * time.Millisecond) // past the original expiry, inside the renewed one
	if _, ok, _ := s.TryAcquire("d1", "beta", time.Minute); ok {
		t.Fatal("renewed lease was claimable")
	}
	time.Sleep(30 * time.Millisecond) // past the renewed expiry
	if _, ok, _ := s.TryAcquire("d1", "beta", time.Minute); !ok {
		t.Fatal("expired renewed lease was not claimable")
	}
}

func TestLeaseReleaseLeavesStealer(t *testing.T) {
	s := openStore(t)
	l, ok, err := s.TryAcquire("d1", "slow", 5*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, ok, err := s.TryAcquire("d1", "stealer", time.Minute); err != nil || !ok {
		t.Fatalf("steal: ok=%v err=%v", ok, err)
	}
	// The displaced holder's release must not clobber the stealer.
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if owner, held := s.LeaseHolder("d1"); !held || owner != "stealer" {
		t.Fatalf("stealer's lease gone after displaced release: %q/%v", owner, held)
	}
}

// TestLeaseTokenGuardsRenewAndRelease: ownership is verified by the
// per-acquisition token, not the owner label — a displaced holder whose
// lease was stolen by a process using the *same* owner string must
// neither renew over nor release the stealer's live claim.
func TestLeaseTokenGuardsRenewAndRelease(t *testing.T) {
	s := openStore(t)
	displaced, ok, err := s.TryAcquire("d1", "shared-label", 5*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(20 * time.Millisecond)
	stealer, ok, err := s.TryAcquire("d1", "shared-label", time.Minute)
	if err != nil || !ok || !stealer.Stolen() {
		t.Fatalf("steal: ok=%v err=%v", ok, err)
	}

	if err := displaced.Renew(time.Minute); err == nil {
		t.Fatal("displaced holder renewed over the stealer's live lease")
	}
	if err := displaced.Release(); err != nil {
		t.Fatal(err)
	}
	if _, held := s.LeaseHolder("d1"); !held {
		t.Fatal("displaced holder's release removed the stealer's live lease")
	}
	// The true holder's renew and release still work.
	if err := stealer.Renew(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := stealer.Release(); err != nil {
		t.Fatal(err)
	}
	if _, held := s.LeaseHolder("d1"); held {
		t.Fatal("true holder could not release")
	}
}

func TestLeaseValidation(t *testing.T) {
	s := openStore(t)
	if _, _, err := s.TryAcquire("", "alpha", time.Minute); err == nil {
		t.Fatal("empty digest accepted")
	}
	if _, _, err := s.TryAcquire("d1", "", time.Minute); err == nil {
		t.Fatal("empty owner accepted")
	}
	if _, _, err := s.TryAcquire("d1", "alpha", 0); err == nil {
		t.Fatal("zero ttl accepted")
	}
	if _, _, err := s.TryAcquire("../escape", "alpha", time.Minute); err == nil {
		t.Fatal("path-separator digest accepted")
	}
}

// TestLeaseFilesInvisibleToIndex: lease files and the compaction lock
// must never be mistaken for blobs by scans.
func TestLeaseFilesInvisibleToIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.TryAcquire("d1", "alpha", time.Minute); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	if err := s.Put(mustKey(t, 0, 42), testResult()); err != nil {
		t.Fatal(err)
	}
	// Force the rebuild path: the scan must index exactly the one blob.
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("rebuilt Len = %d, want 1 (a coordination file leaked into the index)", s2.Len())
	}
}
