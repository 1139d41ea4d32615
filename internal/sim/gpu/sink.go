package gpu

import (
	"sync"

	"golatest/internal/stats"
)

// SampleSink consumes iteration timings while a kernel materialises,
// instead of the kernel storing the full [][]IterSample trace. BlockStart
// runs for every block, in index order, before any delivery. The blocks
// then run, possibly concurrently, and once all have finished their
// samples are delivered on the Synchronize goroutine: block by block in
// index order, iterations in execution order, each block closed by
// BlockEnd. Every call comes from that one goroutine, so sink state needs
// no synchronisation. A kernel launched with a sink does not materialise
// Samples(); callers that need the raw trace (the phase-3 evaluator)
// launch without one.
type SampleSink interface {
	// BlockStart announces that block will run iters iterations and
	// returns from, the first iteration the sink needs. Iterations before
	// from still execute (they draw jitter and take time) but are neither
	// timestamped nor delivered.
	BlockStart(block, iters int) (from int)
	// Sample delivers iteration iter (≥ from) of block, in order.
	Sample(block, iter int, s IterSample)
	// BlockEnd marks block complete.
	BlockEnd(block int)
}

// TailStats is the sink of the warm-up check: it keeps only each block's
// tail-window statistics (iteration durations in milliseconds), so the
// device skips timestamping every iteration before the window.
//
// The tail window of a block with n iterations covers its last
// min(tailCap, n − n/2) iterations — the same "last 100, at most the
// trailing half" rule the warm-up check applied to materialised traces.
//
// A TailStats is reusable: Reset clears it for the next kernel while
// keeping the per-block slice allocation.
type TailStats struct {
	tailCap int
	blocks  []tailWindow
}

// tailWindow accumulates one block's trailing iterations.
type tailWindow struct {
	tailStart int
	acc       stats.Accumulator
}

// NewTailStats returns a sink whose per-block tail windows hold at most
// tailCap iterations (0 defaults to 100, the methodology's warm-up
// window).
func NewTailStats(tailCap int) *TailStats {
	if tailCap <= 0 {
		tailCap = 100
	}
	return &TailStats{tailCap: tailCap}
}

// Reset clears all tail windows for reuse on the next kernel.
func (s *TailStats) Reset() { s.blocks = s.blocks[:0] }

// BlockStart implements SampleSink; it needs iterations from the start
// of the block's tail window on.
func (s *TailStats) BlockStart(block, iters int) int {
	for len(s.blocks) <= block {
		s.blocks = append(s.blocks, tailWindow{})
	}
	tailStart := iters - s.tailCap
	if tailStart < iters/2 {
		tailStart = iters / 2
	}
	s.blocks[block] = tailWindow{tailStart: tailStart}
	return tailStart
}

// Sample implements SampleSink.
func (s *TailStats) Sample(block, iter int, smp IterSample) {
	s.add(block, iter, float64(smp.DurNs())/1e6)
}

// add folds a duration in ms into block's window if iter lies in it.
func (s *TailStats) add(block, iter int, ms float64) {
	if b := &s.blocks[block]; iter >= b.tailStart {
		b.acc.Add(ms)
	}
}

// BlockEnd implements SampleSink.
func (s *TailStats) BlockEnd(block int) {}

// NumBlocks reports how many blocks streamed into the sink.
func (s *TailStats) NumBlocks() int { return len(s.blocks) }

// BlockTail returns the tail-window statistics of one block.
func (s *TailStats) BlockTail(block int) stats.MeanStd {
	return s.blocks[block].acc.MeanStd()
}

// StreamStats is the streaming statistics sink the phase-1
// characterisation consumes: iteration durations (in milliseconds, the
// statistics layer's unit) fold into a Welford moment accumulator
// covering every block, plus the per-block tail windows of a TailStats.
// It needs every iteration, so BlockStart always returns 0.
//
// A StreamStats is reusable: Reset clears it for the next kernel while
// keeping the per-block slice allocation.
type StreamStats struct {
	total stats.MomentAccumulator
	tail  TailStats
}

// NewStreamStats returns a sink whose per-block tail windows hold at most
// tailCap iterations (0 defaults to 100, the methodology's warm-up
// window).
func NewStreamStats(tailCap int) *StreamStats {
	return &StreamStats{tail: *NewTailStats(tailCap)}
}

// Reset clears all accumulators for reuse on the next kernel.
func (s *StreamStats) Reset() {
	s.total.Reset()
	s.tail.Reset()
}

// BlockStart implements SampleSink.
func (s *StreamStats) BlockStart(block, iters int) int {
	s.tail.BlockStart(block, iters)
	return 0
}

// Sample implements SampleSink.
func (s *StreamStats) Sample(block, iter int, smp IterSample) {
	ms := float64(smp.DurNs()) / 1e6
	s.total.Add(ms)
	s.tail.add(block, iter, ms)
}

// BlockEnd implements SampleSink.
func (s *StreamStats) BlockEnd(block int) {}

// N reports the total number of iterations folded in so far.
func (s *StreamStats) N() int { return s.total.N() }

// MeanStd returns the overall iteration-duration statistics in ms.
func (s *StreamStats) MeanStd() stats.MeanStd { return s.total.MeanStd() }

// Skewness returns the overall sample skewness (g1).
func (s *StreamStats) Skewness() float64 { return s.total.Skewness() }

// ExcessKurtosis returns the overall sample excess kurtosis (g2).
func (s *StreamStats) ExcessKurtosis() float64 { return s.total.ExcessKurtosis() }

// NumBlocks reports how many blocks streamed into the sink.
func (s *StreamStats) NumBlocks() int { return s.tail.NumBlocks() }

// BlockTail returns the tail-window statistics of one block.
func (s *StreamStats) BlockTail(block int) stats.MeanStd { return s.tail.BlockTail(block) }

// durationsPool recycles the flattened duration buffers DurationsMs
// returns, bounding steady-state allocation in callers that repeatedly
// flatten kernels of similar size.
var durationsPool = sync.Pool{
	New: func() any { s := make([]float64, 0, 1024); return &s },
}

// GetDurationsBuf leases a zero-length duration buffer from the pool.
func GetDurationsBuf() []float64 { return (*(durationsPool.Get().(*[]float64)))[:0] }

// PutDurationsBuf returns a buffer obtained from GetDurationsBuf (or an
// AppendDurationsMs result built on one) to the pool.
func PutDurationsBuf(buf []float64) {
	buf = buf[:0]
	durationsPool.Put(&buf)
}
