package gpu

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"golatest/internal/sim/clock"
)

// Injection is the ground-truth record of one frequency-change request.
// Real hardware never exposes CompleteNs; the simulator records it so the
// methodology's measured switching latency can be validated against the
// injected one (CompleteNs − RequestNs).
type Injection struct {
	RequestNs  int64 // host time the request was issued
	ApplyNs    int64 // host time the command reached the device
	CompleteNs int64 // host time the transition finished
	InitMHz    float64
	TargetMHz  float64
}

// SwitchingLatencyNs returns the ground-truth switching latency of this
// injection: command issue to transition completion.
func (in Injection) SwitchingLatencyNs() int64 { return in.CompleteNs - in.RequestNs }

// Device is one simulated accelerator attached to a host virtual clock.
//
// A Device is not safe for concurrent use, matching the single-threaded
// host loop that drives the benchmark: callers see a single-threaded
// device. Internally, Synchronize runs a kernel's SM blocks on up to
// GOMAXPROCS goroutines (see materialize); that is invisible to callers,
// whose results are bit-identical at any GOMAXPROCS. Analysis of
// returned samples may be parallelised freely since samples are plain
// values.
type Device struct {
	cfg Config
	clk *clock.Clock
	rng *clock.Rand

	tl        *timeline
	setFreq   float64
	injected  []Injection
	kernelSeq uint64

	smSpeed []float64

	thermal  thermalState
	energy   energyMeter
	reasons  ThrottleReason
	clampMHz float64 // 0 = unclamped

	busyEndNs int64
	everBusy  bool
	queue     []*Kernel
}

// New constructs a device from cfg (normalised internally) bound to the
// given host clock.
func New(cfg Config, clk *clock.Clock) (*Device, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	d := &Device{
		cfg: cfg,
		clk: clk,
		rng: clock.NewRand(cfg.Seed, 0x6c6174657374), // "latest"
	}
	d.tl = newTimeline(clk.Now(), cfg.DefaultFreqMHz)
	d.setFreq = cfg.DefaultFreqMHz
	d.smSpeed = make([]float64, cfg.SMCount)
	speedRng := d.rng.Child(1)
	for i := range d.smSpeed {
		d.smSpeed[i] = speedRng.Normal(1, cfg.SMSpeedSigma)
	}
	d.thermal = thermalState{tempC: cfg.AmbientC, lastUpdateNs: clk.Now()}
	d.energy = energyMeter{lastUpdateNs: clk.Now()}
	return d, nil
}

// Config returns a copy of the device's normalised configuration.
func (d *Device) Config() Config { return d.cfg }

// Clock returns the host clock the device is bound to.
func (d *Device) Clock() *clock.Clock { return d.clk }

// SetFrequency requests an SM applications-clock change to targetMHz at
// the current host time. The request incurs a bus delay before the device
// receives it and a transition period before the new clock is effective,
// both sampled from the architecture's latency model. The ground-truth
// Injection record is returned.
//
// The caller (normally the nvml layer) is responsible for modelling the
// host-side blocking cost of the driver call.
func (d *Device) SetFrequency(targetMHz float64) (Injection, error) {
	if !d.cfg.SupportsFreq(targetMHz) {
		return Injection{}, fmt.Errorf("gpu: %s: unsupported SM clock %v MHz", d.cfg.Name, targetMHz)
	}
	now := d.clk.Now()
	initMHz := d.tl.freqAt(now)
	tr := d.cfg.Latency.Sample(initMHz, targetMHz, d.rng)
	if tr.BusDelayNs < 0 || tr.DurationNs < 0 {
		return Injection{}, fmt.Errorf("gpu: %s: latency model produced negative transition %+v", d.cfg.Name, tr)
	}
	apply := now + tr.BusDelayNs
	complete := apply + tr.DurationNs
	if initMHz == targetMHz {
		// Setting the already-effective clock completes on receipt.
		complete = apply
	}
	d.tl.addRamp(apply, complete, targetMHz, d.cfg.RampSteps)
	d.setFreq = targetMHz

	// Dropping below the power cap releases the power throttle latch.
	if d.cfg.PowerCapMHz > 0 && targetMHz <= d.cfg.PowerCapMHz && d.reasons.Has(ThrottlePower) {
		d.reasons &^= ThrottlePower
		d.thermal.busyAboveCapNs = 0
		d.refreshClamp()
	}

	inj := Injection{
		RequestNs:  now,
		ApplyNs:    apply,
		CompleteNs: complete,
		InitMHz:    initMHz,
		TargetMHz:  targetMHz,
	}
	d.injected = append(d.injected, inj)
	return inj, nil
}

// SetFreqMHz reports the last programmed applications clock.
func (d *Device) SetFreqMHz() float64 { return d.setFreq }

// CurrentFreqMHz reports the clock effective right now, including any
// throttle clamp.
func (d *Device) CurrentFreqMHz() float64 {
	f := d.tl.freqAt(d.clk.Now())
	if d.clampMHz > 0 && f > d.clampMHz {
		return d.clampMHz
	}
	return f
}

// Injections returns the ground-truth records of all frequency-change
// requests issued so far, in request order. The returned slice is shared;
// callers must not modify it.
func (d *Device) Injections() []Injection { return d.injected }

// LastInjection returns the most recent injection record.
// ok is false when no request has been issued yet.
func (d *Device) LastInjection() (inj Injection, ok bool) {
	if len(d.injected) == 0 {
		return Injection{}, false
	}
	return d.injected[len(d.injected)-1], true
}

// DeviceTimeAt converts a host timestamp to the device's global-timer
// reading at that instant: offset plus drift, quantised to the timer
// refresh period.
func (d *Device) DeviceTimeAt(hostNs int64) int64 {
	t := hostNs + d.cfg.ClockOffsetNs
	if d.cfg.ClockDriftPPM != 0 {
		t += int64(float64(hostNs) * d.cfg.ClockDriftPPM / 1e6)
	}
	q := d.cfg.TimerQuantumNs
	return t - mod(t, q)
}

// HostTimeFor inverts DeviceTimeAt up to quantisation: it returns the
// host timestamp whose device-clock reading is closest to devNs. Used by
// analysis code to map device timestamps back onto the host timeline.
func (d *Device) HostTimeFor(devNs int64) int64 {
	t := devNs - d.cfg.ClockOffsetNs
	if d.cfg.ClockDriftPPM != 0 {
		t -= int64(float64(t) * d.cfg.ClockDriftPPM / 1e6)
	}
	return t
}

// Temperature reports the die temperature in °C at the current host time,
// applying idle cooling since the device last finished work, and releases
// the thermal throttle once the temperature has fallen through the
// hysteresis band.
func (d *Device) Temperature() float64 {
	now := d.clk.Now()
	if now > d.thermal.lastUpdateNs {
		// Between materialised kernels the device is idle.
		d.thermal.evolve(&d.cfg, now, d.tl.freqAt(now), false)
	}
	if d.reasons.Has(ThrottleThermal) &&
		d.thermal.tempC < d.cfg.ThermalLimitC-d.cfg.ThermalHysteresisC {
		d.reasons &^= ThrottleThermal
		d.refreshClamp()
	}
	return d.thermal.tempC
}

// ThrottleReasons reports the active throttle reasons at the current host
// time (refreshing thermal recovery first, like an NVML register read).
func (d *Device) ThrottleReasons() ThrottleReason {
	d.Temperature()
	return d.reasons
}

// refreshClamp recomputes the clock clamp from the active reasons.
func (d *Device) refreshClamp() {
	d.clampMHz = 0
	if d.reasons.Has(ThrottleThermal) {
		d.clampMHz = d.cfg.ThrottleClampMHz
	}
	if d.reasons.Has(ThrottlePower) && d.cfg.PowerCapMHz > 0 {
		if d.clampMHz == 0 || d.cfg.PowerCapMHz < d.clampMHz {
			d.clampMHz = d.cfg.PowerCapMHz
		}
	}
}

// Launch enqueues a kernel for execution. The host clock advances by the
// launch overhead; the kernel itself executes asynchronously in virtual
// time and its timings materialise on Synchronize.
func (d *Device) Launch(spec KernelSpec) (*Kernel, error) {
	return d.LaunchWithSink(spec, nil)
}

// LaunchWithSink enqueues a kernel whose iteration timings stream into
// sink during materialisation instead of being stored on the kernel: the
// per-block sample slices are never allocated and Samples becomes
// unavailable. A nil sink is equivalent to Launch.
func (d *Device) LaunchWithSink(spec KernelSpec, sink SampleSink) (*Kernel, error) {
	if err := spec.validate(&d.cfg); err != nil {
		return nil, err
	}
	d.clk.Advance(d.cfg.LaunchOverheadNs)
	k := &Kernel{spec: spec, enqueuedNs: d.clk.Now(), dev: d, sink: sink}
	d.queue = append(d.queue, k)
	return k, nil
}

// Synchronize blocks the host until every queued kernel has finished:
// kernels are materialised FIFO against the frequency timeline, thermal
// state advances, throttles latch, and the host clock lands on the final
// completion time.
func (d *Device) Synchronize() {
	if len(d.queue) > 0 {
		fan := fanoutPool.Get().(*fanout)
		for _, k := range d.queue {
			d.materialize(k, fan)
		}
		fanoutPool.Put(fan)
	}
	d.queue = d.queue[:0]
	if d.busyEndNs > d.clk.Now() {
		d.clk.AdvanceTo(d.busyEndNs)
	}
}

// Pending reports the number of launched, not-yet-synchronised kernels.
func (d *Device) Pending() int { return len(d.queue) }

// fanout is the scratch state of one kernel's block fan-out. It is
// leased from fanoutPool for one Synchronize, so its sink buffers and
// streams are reused across kernels and devices.
type fanout struct {
	// The kernel and its host start and wake-window end ride here rather
	// than in the worker closures, which keeps each closure allocation
	// small.
	k              *Kernel
	start, wakeEnd int64

	kernel *clock.Rand    // the kernel stream the block seeds come from
	seeds  []clock.Seed   // each block's stream, derived in block order
	out    [][]IterSample // each block's samples, from its first wanted iteration on
	ends   []int64        // each block's host end time
	bufs   [][]IterSample // sink buffers behind out, kept for reuse
	rngs   []*clock.Rand  // one scratch stream per worker
	next   atomic.Int64   // the next block no worker has claimed
	wg     sync.WaitGroup
}

// minFanoutIters is the kernel size, in block-iterations, below which
// materialize runs every block on the calling goroutine: handing blocks
// to other goroutines costs a few microseconds, more than such a kernel
// saves by running on several cores.
const minFanoutIters = 1024

var fanoutPool = sync.Pool{
	New: func() any { return &fanout{kernel: clock.NewRand(0, 0)} },
}

// resize returns s with length n, reallocating only when it is too
// small. Contents are not preserved.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// materialize computes the per-SM iteration timings of kernel k.
//
// The blocks run concurrently on min(GOMAXPROCS, blocks) workers, the
// calling goroutine being one of them, and the result is bit-identical
// at any worker count: every block's stream is derived from the kernel
// stream in block order before any block runs, each block is a pure
// function of its seed and of state nothing writes during the fan-out
// (timeline, cfg, smSpeed, clampMHz), and sinks receive the blocks
// afterwards, on this goroutine, in block order. Thermal, energy and
// busy state advance after the join.
func (d *Device) materialize(k *Kernel, fan *fanout) {
	start := k.enqueuedNs
	if d.busyEndNs > start {
		start = d.busyEndNs
	}

	// Wake-up: a kernel arriving after an idle gap runs at idle clocks
	// for the wake delay before the programmed frequency takes hold.
	wakeEnd := int64(0)
	idleGap := start - d.busyEndNs
	if !d.everBusy || idleGap > d.cfg.IdleTimeoutNs {
		wakeEnd = start + d.cfg.WakeDelayNs
	}

	// Thermal: idle cooling from the last update until the kernel start.
	if start > d.thermal.lastUpdateNs {
		d.thermal.evolve(&d.cfg, start, d.tl.freqAt(start), false)
	}

	d.kernelSeq++
	fan.kernel.Reseed(d.rng.ChildSeed(0x1000 + d.kernelSeq))

	blocks := k.spec.Blocks
	if blocks == 0 || blocks > d.cfg.SMCount {
		blocks = d.cfg.SMCount
	}
	iters := k.spec.Iters
	fan.seeds = resize(fan.seeds, blocks)
	fan.out = resize(fan.out, blocks)
	fan.ends = resize(fan.ends, blocks)
	for len(fan.bufs) < blocks {
		fan.bufs = append(fan.bufs, nil)
	}
	if k.sink == nil {
		k.samples = make([][]IterSample, blocks)
	}
	for sm := range blocks {
		fan.seeds[sm] = fan.kernel.ChildSeed(uint64(sm))
		if k.sink == nil {
			k.samples[sm] = make([]IterSample, iters)
			fan.out[sm] = k.samples[sm]
		} else {
			from := min(max(k.sink.BlockStart(sm, iters), 0), iters)
			fan.bufs[sm] = resize(fan.bufs[sm], iters-from)
			fan.out[sm] = fan.bufs[sm]
		}
	}
	k.startNs = start
	fan.k, fan.start, fan.wakeEnd = k, start, wakeEnd

	workers := min(runtime.GOMAXPROCS(0), blocks)
	if blocks*iters < minFanoutIters {
		workers = 1
	}
	for len(fan.rngs) < workers {
		fan.rngs = append(fan.rngs, clock.NewRand(0, 0))
	}
	fan.next.Store(0)
	fan.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer fan.wg.Done()
			d.runBlocks(fan, w)
		}()
	}
	d.runBlocks(fan, 0)
	fan.wg.Wait()

	var maxEnd int64
	for sm, end := range fan.ends {
		maxEnd = max(maxEnd, end)
		if k.sink != nil {
			from := iters - len(fan.out[sm])
			for i, s := range fan.out[sm] {
				k.sink.Sample(sm, from+i, s)
			}
			k.sink.BlockEnd(sm)
		}
	}
	// Drop the kernel and its trace from the pooled scratch.
	fan.k = nil
	clear(fan.out)
	k.endNs = maxEnd
	k.done = true

	// Thermal: integrate across the kernel's busy window piecewise, at the
	// effective clock of each timeline segment (wake window and throttle
	// clamp included), so long transitions and wake periods heat honestly.
	w := d.newWalker(start, wakeEnd, 1)
	for t := start; t < maxEnd; {
		w.seek(t)
		end := min(w.end, maxEnd)
		d.thermal.evolve(&d.cfg, end, w.freq, true)
		t = end
	}
	if d.thermal.tempC > d.cfg.ThermalLimitC && !d.reasons.Has(ThrottleThermal) {
		d.reasons |= ThrottleThermal
		d.refreshClamp()
	}
	if d.cfg.PowerCapMHz > 0 && d.thermal.busyAboveCapNs > d.cfg.PowerCapDelayNs &&
		!d.reasons.Has(ThrottlePower) {
		d.reasons |= ThrottlePower
		d.refreshClamp()
	}

	d.meterBusy(start, maxEnd, wakeEnd)

	d.busyEndNs = maxEnd
	d.everBusy = true
}

// runBlocks is worker w of materialize's fan-out: it claims blocks
// until none is left and runs each on its own scratch stream, re-seeded
// to the block's stream.
func (d *Device) runBlocks(fan *fanout, w int) {
	r := fan.rngs[w]
	for {
		sm := int(fan.next.Add(1) - 1)
		if sm >= len(fan.seeds) {
			return
		}
		r.Reseed(fan.seeds[sm])
		fan.ends[sm] = d.runSM(fan.k, sm, fan.start, fan.wakeEnd, r, fan.out[sm])
	}
}

// runSM executes the iteration loop of one SM-resident block and returns
// the host time at which the block finished. It timestamps the block's
// last len(out) iterations into out; the iterations before them still
// draw their jitter and advance time, so the random stream and the
// block's end time never depend on how many the caller wants. Iteration
// i's quantised end is iteration i+1's start, so each boundary is
// converted once. runSM reads device state but writes none, so blocks
// may run concurrently, each into its own out.
func (d *Device) runSM(k *Kernel, sm int, start, wakeEnd int64, r *clock.Rand, out []IterSample) int64 {
	iters := k.spec.Iters
	from := iters - len(out)
	w := d.newWalker(start, wakeEnd, d.smSpeed[sm])
	cycles, sigma := k.spec.CyclesPerIter, d.cfg.IterJitterSigma
	t := start
	for range from {
		t += w.iterNs(t, cycles*jitter(r, sigma))
	}
	startDev := d.DeviceTimeAt(t)
	for i := range out {
		t += w.iterNs(t, cycles*jitter(r, sigma))
		endDev := d.DeviceTimeAt(t)
		out[i] = IterSample{StartNs: startDev, EndNs: endDev}
		startDev = endDev
	}
	return t
}

// jitter draws one iteration's execution-time factor, N(1, sigma²)
// floored at 0.5: the floor guards the pathological tail and keeps time
// positive.
func jitter(r *clock.Rand, sigma float64) float64 {
	return max(r.Normal(1, sigma), 0.5)
}

// walker walks one block's monotone time along the frequency timeline.
// It caches the effective segment the walk is in: the clock after the
// wake window and throttle clamp, the rate in cycles per nanosecond that
// clock gives, and the segment's end, clipped to the wake end. An
// iteration that fits inside the cached segment costs a multiply, a
// compare and a divide; one that crosses the cached end is integrated
// across the timeline. Either way the duration is integrate's, bit for
// bit: the fast path is integrate's first loop pass with the lookup
// hoisted out.
type walker struct {
	d       *Device
	cur     cursor
	speed   float64
	wakeEnd int64

	freq float64 // effective clock of the cached segment, MHz
	rate float64 // freq*speed/1000, cycles per nanosecond
	end  int64   // end of the cached segment; math.MaxInt64 if it never ends
}

// newWalker returns a walker for a block of the given speed, in a kernel
// starting at host time start whose wake window ends at wakeEnd, with
// the segment covering start cached.
func (d *Device) newWalker(start, wakeEnd int64, speed float64) walker {
	w := walker{d: d, cur: d.tl.cursor(), speed: speed, wakeEnd: wakeEnd}
	w.seek(start)
	return w
}

// seek fills the cache with the effective segment covering host time t,
// which must not precede any earlier seek's.
func (w *walker) seek(t int64) {
	f, end := w.cur.freqAt(t)
	if t < w.wakeEnd {
		f = w.d.cfg.IdleFreqMHz
		if w.wakeEnd < end {
			end = w.wakeEnd
		}
	} else if c := w.d.clampMHz; c > 0 && f > c {
		f = c
	}
	w.freq, w.rate, w.end = f, f*w.speed/1000, end
}

// iterNs returns the host-time nanoseconds needed to execute cycles
// starting at host time t, exactly as integrate computes them. Calls
// must not move t backwards.
func (w *walker) iterNs(t int64, cycles float64) int64 {
	// integrate's condition also accepts any budget in a segment that
	// never ends; a budget this one declines there, or any budget at
	// t == end, takes the integrate path, which returns the same.
	if cycles <= float64(w.end-t)*w.rate {
		elapsed := cycles / w.rate
		if elapsed < 1 {
			elapsed = 1
		}
		return int64(elapsed + 0.5)
	}
	// The iteration crosses the cached end: integrate it, then cache the
	// segment the next iteration starts in.
	ns := w.d.integrate(t, cycles, w.speed, w.wakeEnd, &w.cur)
	w.seek(t + ns)
	return ns
}

// integrate returns the host-time nanoseconds needed to execute the given
// cycle count starting at host time t, walking the frequency timeline and
// honouring the wake window and throttle clamp. The cursor amortises the
// segment lookups across the caller's monotone time walk. It is the
// reference the walker's fast path replays; the walker calls it for the
// iterations that cross a segment end.
func (d *Device) integrate(t int64, cycles, speed float64, wakeEnd int64, cur *cursor) int64 {
	var elapsed float64
	remaining := cycles
	for remaining > 0 {
		f, segEnd := cur.freqAt(t)
		if t < wakeEnd {
			f = d.cfg.IdleFreqMHz
			if wakeEnd < segEnd {
				segEnd = wakeEnd
			}
		} else if d.clampMHz > 0 && f > d.clampMHz {
			f = d.clampMHz
		}
		// rate in cycles per nanosecond at this effective clock.
		rate := f * speed / 1000
		span := float64(segEnd - t)
		if segEnd == math.MaxInt64 || remaining <= span*rate {
			need := remaining / rate
			elapsed += need
			remaining = 0
			break
		}
		elapsed += span
		remaining -= span * rate
		t = segEnd
	}
	if elapsed < 1 {
		elapsed = 1
	}
	return int64(elapsed + 0.5)
}

func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}
