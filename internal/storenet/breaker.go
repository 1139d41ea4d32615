package storenet

import (
	"sync"
	"time"
)

// Circuit breaker defaults; ClientOptions overrides both.
const (
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 2 * time.Second
)

// breaker states. Closed passes traffic; open fast-fails everything
// until the cooldown elapses; half-open admits exactly one probe whose
// outcome decides between closed and another open period.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a consecutive-failure circuit breaker over the client's
// network attempts. Its job is latency containment, not correctness:
// once the daemon is evidently down, every further request would burn a
// full timeout-and-retry cycle per store operation and stall the whole
// worker pool — the breaker converts those stalls into immediate
// ErrUnavailable failures, which the tiered client absorbs in degraded
// mode and the fleet's store-error policy survives.
type breaker struct {
	threshold int // consecutive failures that open the circuit; < 0 disables
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests

	// onTransition, when set, observes every state edge with the
	// consecutive-failure count at the moment of the transition. It is
	// called under the breaker lock: keep it cheap (count + log) and
	// never reenter the breaker from it. Set once, before first use.
	onTransition func(from, to int, fails int)

	mu       sync.Mutex
	state    int
	fails    int
	openedAt time.Time
	// gen counts open transitions. allow stamps each admitted attempt
	// with it, and record ignores an outcome whose stamp is older: that
	// attempt was admitted before the circuit opened, so it says nothing
	// about the daemon since.
	gen uint64
}

// breakerStateName renders a breaker state for logs and telemetry.
func breakerStateName(s int) string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// transition moves the state machine and notifies the observer. Caller
// holds b.mu.
func (b *breaker) transition(to int) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	if b.onTransition != nil {
		b.onTransition(from, to, b.fails)
	}
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	if threshold == 0 {
		threshold = defaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	if now == nil {
		now = time.Now
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// allow reports whether an attempt may touch the network, and the
// generation to pass back to record with the attempt's outcome. While
// open it fast-fails everything until the cooldown elapses, then admits
// exactly one half-open probe; while the probe is in flight everyone
// else keeps fast-failing (a thundering herd against a barely-recovered
// daemon is how outages restart).
func (b *breaker) allow() (gen uint64, ok bool) {
	if b.threshold < 0 {
		return 0, true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return b.gen, true
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.transition(breakerHalfOpen)
			return b.gen, true
		}
		return b.gen, false
	default: // half-open: the probe is already out
		return b.gen, false
	}
}

// isOpen peeks at the circuit without mutating it: true only while the
// circuit is open and its cooldown has not yet elapsed. Once the
// cooldown passes the answer flips to false — the next allow() would
// admit a half-open probe, so callers routing around an "open" member
// (the replicating router) resume offering it traffic at exactly the
// moment the breaker itself would.
func (b *breaker) isOpen() bool {
	if b.threshold < 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerOpen && b.now().Sub(b.openedAt) < b.cooldown
}

// record feeds the outcome of an attempt allow admitted under gen. It
// reports whether this outcome closed a previously open circuit — the
// recovery edge the client's background reconciler hangs off.
//
// Outcomes of attempts admitted before the circuit last opened (they
// were in flight when it tripped) change nothing. A late failure is
// evidence of the same outage and must not extend the cooldown. A late
// success was served before the outage, so it is no recovery: closing
// on it would start a replay against a daemon that is still down.
func (b *breaker) record(gen uint64, ok bool) (recovered bool) {
	if b.threshold < 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if gen != b.gen {
		return false
	}
	if ok {
		recovered = b.state != breakerClosed
		b.transition(breakerClosed)
		b.fails = 0
		return recovered
	}
	b.fails++
	// A failed half-open probe reopens immediately; in the closed state
	// the consecutive-failure threshold decides.
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.fails >= b.threshold) {
		b.transition(breakerOpen)
		b.openedAt = b.now()
		b.gen++
	}
	return false
}

// reset forces the circuit closed. An explicit Reconcile calls it: the
// operator (or recovery path) is asserting the remote is back, and the
// replay's own requests will re-open the circuit if it is not.
func (b *breaker) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.transition(breakerClosed)
	b.fails = 0
}
