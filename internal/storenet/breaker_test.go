package storenet

import (
	"testing"
	"time"
)

// fakeClock is an advanceable clock for breaker tests — no sleeping.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

// allowed reports whether b admits an attempt now.
func allowed(b *breaker) bool {
	_, ok := b.allow()
	return ok
}

// attempt admits one attempt and records its outcome straight away,
// reporting whether that outcome closed the circuit.
func attempt(t *testing.T, b *breaker, ok bool) (recovered bool) {
	t.Helper()
	gen, admitted := b.allow()
	if !admitted {
		t.Fatal("breaker refused an attempt the test expected it to admit")
	}
	return b.record(gen, ok)
}

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(3, time.Second, clk.now)

	// Closed passes traffic; failures below the threshold keep it closed.
	// One attempt is admitted now and stays in flight across the trip.
	straggler, _ := b.allow()
	for i := 0; i < 2; i++ {
		if attempt(t, b, false) {
			t.Fatal("failure reported a recovery")
		}
	}
	if !allowed(b) {
		t.Fatal("closed breaker refused below threshold")
	}
	// Third consecutive failure trips it.
	attempt(t, b, false)
	if allowed(b) {
		t.Fatal("open breaker admitted an attempt")
	}

	// Failures recorded while open (in-flight stragglers) must not
	// extend the cooldown.
	clk.advance(900 * time.Millisecond)
	b.record(straggler, false)
	clk.advance(100 * time.Millisecond)

	// Cooldown elapsed: exactly one half-open probe goes out.
	probe, ok := b.allow()
	if !ok {
		t.Fatal("cooldown elapsed but no probe admitted")
	}
	if allowed(b) {
		t.Fatal("second concurrent probe admitted in half-open")
	}
	// A failed probe reopens immediately.
	b.record(probe, false)
	if allowed(b) {
		t.Fatal("breaker admitted traffic right after a failed probe")
	}

	// Next cooldown, successful probe closes it and reports recovery.
	clk.advance(time.Second)
	if !attempt(t, b, true) {
		t.Fatal("successful probe did not report the recovery edge")
	}
	if !allowed(b) {
		t.Fatal("closed breaker refused after recovery")
	}
	// A success in the closed state is not a recovery.
	if attempt(t, b, true) {
		t.Fatal("steady-state success reported a recovery")
	}
}

// TestBreakerIgnoresSuccessAdmittedBeforeOpen: an attempt admitted
// while the circuit was closed can answer after the threshold failures
// opened it. Its success describes the daemon before the outage, so it
// must neither close the circuit nor report a recovery (which would
// start a journal replay against a daemon that is still down). A real
// half-open probe's success still closes it.
func TestBreakerIgnoresSuccessAdmittedBeforeOpen(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(2, time.Second, clk.now)

	inFlight, ok := b.allow()
	if !ok {
		t.Fatal("closed breaker refused an attempt")
	}
	attempt(t, b, false)
	attempt(t, b, false)
	if allowed(b) {
		t.Fatal("breaker did not open at the threshold")
	}

	if b.record(inFlight, true) {
		t.Fatal("success admitted before the circuit opened reported a recovery")
	}
	if allowed(b) {
		t.Fatal("success admitted before the circuit opened closed it")
	}

	clk.advance(time.Second)
	if !attempt(t, b, true) {
		t.Fatal("half-open probe success did not report the recovery edge")
	}
	if !allowed(b) {
		t.Fatal("half-open probe success did not close the circuit")
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(3, time.Second, clk.now)
	// The threshold counts *consecutive* failures: an interleaved
	// success starts the count over.
	attempt(t, b, false)
	attempt(t, b, false)
	attempt(t, b, true)
	attempt(t, b, false)
	attempt(t, b, false)
	if !allowed(b) {
		t.Fatal("breaker opened on non-consecutive failures")
	}
	attempt(t, b, false)
	if allowed(b) {
		t.Fatal("breaker stayed closed past the threshold")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(-1, time.Second, nil)
	for i := 0; i < 100; i++ {
		attempt(t, b, false)
	}
	if !allowed(b) {
		t.Fatal("disabled breaker opened")
	}
}

func TestBreakerReset(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(1, time.Hour, clk.now)
	attempt(t, b, false)
	if allowed(b) {
		t.Fatal("breaker did not open at threshold 1")
	}
	b.reset()
	if !allowed(b) {
		t.Fatal("reset did not close the breaker")
	}
}
