package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrUnreachable marks a remote write that failed on infrastructure (a
// transport error, server errors past the retry budget, an open circuit
// breaker), as opposed to a live remote refusing it (auth, a bad blob,
// any other 4xx). Only ErrUnreachable failures may be deferred to a Tier's
// journal: a refusal would be refused again at replay.
var ErrUnreachable = errors.New("store: remote unreachable")

// The journal is pending/<digest>.pend inside the tier's directory
// (store scans skip directories): the blob is an ordinary blob, and the
// marker body is the deferring request's W3C traceparent, or empty.
const (
	pendingDirName = "pending"
	pendingSuffix  = ".pend"
)

// Tier is the local directory store storenet.Client (its Cache) and the
// replicating router (its Local) read and write through, plus the
// write-behind journal that makes it the fallback when the remote is
// unreachable. Blobs are immutable per digest, so the tier can disagree
// with the remote only about a blob's presence, never its content.
//
// A nil *Tier is an absent tier: lookups miss, writes and replays are
// no-ops, and the counters read zero. Defer alone needs a real tier.
type Tier struct {
	s       *Store
	pendDir string

	replayMu                      sync.Mutex  // one replay at a time
	replaying                     atomic.Bool // a background replay runs
	deferred, reconciled, pending atomic.Int64
}

// NewTier wraps s, counting the journal entries an earlier process left
// so Pending is right from the start. A nil store yields the nil tier.
func NewTier(s *Store) *Tier {
	if s == nil {
		return nil
	}
	t := &Tier{s: s, pendDir: filepath.Join(s.Dir(), pendingDirName)}
	entries, _ := os.ReadDir(t.pendDir)
	for _, de := range entries {
		if !de.IsDir() && strings.HasSuffix(de.Name(), pendingSuffix) {
			t.pending.Add(1)
		}
	}
	return t
}

// GetValidated looks the digest up in the local directory.
func (t *Tier) GetValidated(digest string) (*ValidatedBlob, bool) {
	if t == nil {
		return nil, false
	}
	return t.s.GetValidated(digest)
}

// Has reports whether the local directory holds a blob for the key.
func (t *Tier) Has(k Key) bool { return t != nil && t.s.Has(k) }

// PutValidated writes a blob the remote already holds (a remote hit, or
// a write the remote accepted) down to the local directory, verbatim.
// Best-effort: a full local disk must not fail an operation the remote
// already answered.
func (t *Tier) PutValidated(vb *ValidatedBlob) {
	if t != nil {
		_ = t.s.PutValidated(vb)
	}
}

// Defer is the degraded write: it lands the blob in the local directory
// and journals it for Replay under traceparent. Both steps must succeed
// for the write to count as durable. The O_EXCL marker makes deferral
// idempotent per digest (Pending counts markers), while Deferred counts
// every deferral.
func (t *Tier) Defer(vb *ValidatedBlob, traceparent string) error {
	if err := t.s.PutValidated(vb); err != nil {
		return err
	}
	if err := os.MkdirAll(t.pendDir, 0o755); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(t.pendDir, vb.Digest()+pendingSuffix),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	switch {
	case err == nil:
		if traceparent != "" {
			_, _ = f.WriteString(traceparent + "\n")
		}
		f.Close()
		t.pending.Add(1)
	case !os.IsExist(err):
		return fmt.Errorf("journal: %w", err)
	}
	t.deferred.Add(1)
	return nil
}

// Replay hands every journaled blob to put, with the traceparent it was
// deferred under, and drops the marker of each blob put accepts. The
// first put error stops the pass with the rest still journaled. A
// marker whose blob has left the directory (evicted, or deleted as
// corrupt) is dropped: the result recomputes on demand. Blobs are
// content-addressed, so replaying one the remote already has (a crash
// between put and marker removal, a racing peer) is harmless.
func (t *Tier) Replay(put func(vb *ValidatedBlob, traceparent string) error) (int, error) {
	if t == nil {
		return 0, nil
	}
	t.replayMu.Lock()
	defer t.replayMu.Unlock()
	entries, err := os.ReadDir(t.pendDir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("store: replay: %w", err)
	}
	replayed := 0
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, pendingSuffix) {
			continue
		}
		marker := filepath.Join(t.pendDir, name)
		vb, ok := t.s.GetValidated(strings.TrimSuffix(name, pendingSuffix))
		if !ok {
			t.dropMarker(marker)
			continue
		}
		traceparent, _ := os.ReadFile(marker)
		if err := put(vb, strings.TrimSpace(string(traceparent))); err != nil {
			return replayed, err
		}
		t.dropMarker(marker)
		t.reconciled.Add(1)
		replayed++
	}
	return replayed, nil
}

func (t *Tier) dropMarker(marker string) {
	if os.Remove(marker) == nil {
		t.pending.Add(-1)
	}
}

// ReplayInBackground starts a Replay on its own goroutine when entries
// are pending and no background replay is running — the recovery
// trigger a backend pulls when its remote answers again.
func (t *Tier) ReplayInBackground(put func(vb *ValidatedBlob, traceparent string) error) {
	if t == nil || t.pending.Load() == 0 || !t.replaying.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer t.replaying.Store(false)
		_, _ = t.Replay(put)
	}()
}

// Stats reports the journal traffic; Degraded is the caller's to count.
func (t *Tier) Stats() ResilienceStats {
	if t == nil {
		return ResilienceStats{}
	}
	return ResilienceStats{
		Deferred:   t.deferred.Load(),
		Reconciled: t.reconciled.Load(),
		Pending:    t.pending.Load(),
	}
}

// Counters reports the local directory's traffic.
func (t *Tier) Counters() Counters {
	if t == nil {
		return Counters{}
	}
	return t.s.Counters()
}
