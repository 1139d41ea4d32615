package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tierBlob(t *testing.T, instance int) *ValidatedBlob {
	t.Helper()
	k, err := KeyFor("a100", instance, 42, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeBlobV3(k, testResult())
	if err != nil {
		t.Fatal(err)
	}
	vb, err := ValidateBlobBytes(data, k.Digest)
	if err != nil {
		t.Fatal(err)
	}
	return vb
}

// TestTierJournal walks the journal's life: deferral is idempotent per
// digest, a new Tier over the directory counts what is pending, a
// failing put stops the replay and keeps its marker, the marker carries
// the traceparent, and an evicted blob's marker is dropped, not
// replayed.
func TestTierJournal(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tier := NewTier(s)
	a, b := tierBlob(t, 0), tierBlob(t, 1)
	const tp = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	for _, vb := range []*ValidatedBlob{a, a, b} {
		if err := tier.Defer(vb, tp); err != nil {
			t.Fatal(err)
		}
	}
	if st := tier.Stats(); st.Deferred != 3 || st.Pending != 2 {
		t.Fatalf("Stats = %+v, want Deferred=3 Pending=2", st)
	}
	marker, err := os.ReadFile(filepath.Join(s.Dir(), "pending", a.Digest()+".pend"))
	if err != nil || strings.TrimSpace(string(marker)) != tp {
		t.Fatalf("marker body = %q, %v; want the traceparent", marker, err)
	}

	again := NewTier(s)
	if st := again.Stats(); st.Pending != 2 {
		t.Fatalf("new Tier Pending = %d, want 2 (journal scan)", st.Pending)
	}
	refused := errors.New("refused")
	if n, err := again.Replay(func(*ValidatedBlob, string) error { return refused }); n != 0 || !errors.Is(err, refused) {
		t.Fatalf("failing Replay = %d, %v; want 0, the put error", n, err)
	}
	if st := again.Stats(); st.Pending != 2 {
		t.Fatalf("Pending = %d after a failed replay, want 2", st.Pending)
	}

	if err := os.Remove(filepath.Join(s.Dir(), b.Digest()+".json")); err != nil {
		t.Fatal(err)
	}
	var put []string
	n, err := again.Replay(func(vb *ValidatedBlob, traceparent string) error {
		if traceparent != tp {
			t.Errorf("replayed under %q, want %q", traceparent, tp)
		}
		put = append(put, vb.Digest())
		return nil
	})
	if err != nil || n != 1 || len(put) != 1 || put[0] != a.Digest() {
		t.Fatalf("Replay = %d, %v, put %v; want only the blob still present", n, err, put)
	}
	if st := again.Stats(); st.Pending != 0 || st.Reconciled != 1 {
		t.Fatalf("Stats after Replay = %+v, want Pending=0 Reconciled=1", st)
	}
}

// TestNilTierIsAbsent: the nil Tier misses, ignores writes, replays
// nothing and counts nothing.
func TestNilTierIsAbsent(t *testing.T) {
	var tier *Tier
	vb := tierBlob(t, 0)
	if NewTier(nil) != nil {
		t.Fatal("NewTier(nil) built a tier")
	}
	if _, ok := tier.GetValidated(vb.Digest()); ok || tier.Has(vb.Key()) {
		t.Fatal("nil tier hit")
	}
	tier.PutValidated(vb)
	if n, err := tier.Replay(nil); n != 0 || err != nil {
		t.Fatalf("nil Replay = %d, %v", n, err)
	}
	if st, c := tier.Stats(), tier.Counters(); st != (ResilienceStats{}) || c != (Counters{}) {
		t.Fatalf("nil tier counts: %+v %+v", st, c)
	}
}
