package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"golatest/internal/cluster"
	"golatest/internal/core"
	"golatest/internal/stats"
)

// The blob format. Every blob the store reads, writes and serves is the
// v3 container — the only one; the name survives from the two JSON
// generations it replaced, which now read as invalid blobs:
//
//	blob: magic(4) ‖ gzip(body)
//	body: schema u32 ‖ reserved u64 ‖ digest ‖ profile ‖ instance ‖ result
//
// All integers are little-endian and fixed-width; floats are IEEE-754
// bits. The reserved field once carried a size; it is written as zero
// and never read, so blobs written before it was retired still decode.
// The index's RawBytes is the body size, taken from the encoder's byte
// count and from the length of the inflated body on a read.
//
// Fields that legitimately hold non-finite values (samples, summaries,
// InjectedMs, RSEs, cluster eps, phase-1 moments) store NaN as the one
// canonical quiet NaN, so results equal up to NaN payload encode to
// equal bytes. The plain float fields — pair frequencies, phase-1 clock
// frequencies and Unstable — must be finite: the encoder refuses a
// result that puts NaN or ±Inf there.
//
// Slices encode as a u32 tag — v3NilSlice for a nil slice, the element
// count otherwise — so nil and empty stay distinct. The append-built
// slices (Pairs, Measurements, the phase-1 stats) write nil when empty
// and decode empty as nil. Strings are a u32 length plus the bytes.
// Every count is checked against the bytes actually remaining before
// anything is allocated, so a tampered length is an invalid blob, not
// an allocation storm. The gzip layer is a single member with no
// trailing bytes and a bounded inflate.
//
// Any change to the body layout or to the meaning of a field must bump
// SchemaVersion, so stale blobs miss instead of decoding into garbage.

// ErrInvalidBlob marks bytes that are not a valid blob for the digest
// they were presented under: not the v3 container, a broken or truncated
// compressed stream, a malformed body, a foreign schema version, or a
// digest mismatch. It distinguishes "these bytes are garbage" (reject,
// recompute) from I/O failures; the network daemon maps it to 400 Bad
// Request.
var ErrInvalidBlob = errors.New("invalid blob")

// v3Magic opens every blob. Its first byte is outside ASCII and is not
// the gzip magic, so neither legacy JSON nor bare gzip can pass for it.
var v3Magic = [4]byte{0xB3, 'G', 'L', '3'}

// v3NilSlice is the slice tag distinguishing nil from empty.
const v3NilSlice = ^uint32(0)

// canonicalNaN is the one NaN bit pattern blobs store.
var canonicalNaN = math.Float64bits(math.NaN())

// gzipBlobLevel is the compression level of every blob this process
// writes. One fixed level keeps the bytes deterministic (equal key ⇒
// equal result ⇒ equal blob for writers of the same build), so
// idempotent duplicate Puts converge byte for byte.
const gzipBlobLevel = gzip.DefaultCompression

// Codec pools: encode and decode run on every warm store hit and every
// wire transfer, so the gzip state machines (~hundreds of KB each) are
// recycled instead of reallocated per call.
var (
	gzipWriters = sync.Pool{New: func() any {
		w, _ := gzip.NewWriterLevel(io.Discard, gzipBlobLevel)
		return w
	}}
	gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}
	// decodeBufs holds an inflated body for the length of one parse;
	// the parse copies out everything it keeps.
	decodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// maxBodyBytes bounds how far a blob may inflate. A full-scale campaign
// body is low megabytes, so 256 MiB is a safety rail, not a working
// limit: without it a crafted gzip bomb (deflate approaches 1032:1)
// arriving through PutRaw or a client Get would balloon into gigabytes
// of decode buffer. A variable so the bomb test need not inflate
// 256 MiB to cross it.
var maxBodyBytes int64 = 256 << 20

// maxPooledDecodeBuf caps the scratch buffers decodeBufs retains; a
// pathological blob's oversized buffer is dropped for GC instead of
// pinning its memory in the pool forever.
const maxPooledDecodeBuf = 8 << 20

func putDecodeBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledDecodeBuf {
		decodeBufs.Put(buf)
	}
}

// countingWriter measures the byte stream passing through it, so Put
// can record the on-disk size without materialising the blob.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// appender is pooled write scratch: values are appended to buf and
// flushed to w in bulk, so encoding a body performs zero allocations
// and O(1) writes per scratch-buffer fill. n counts every byte
// appended — the body size — and err latches the first failure, a
// write error or a value the format refuses.
type appender struct {
	w   io.Writer
	buf []byte
	n   int64
	err error
}

var appenders = sync.Pool{New: func() any {
	return &appender{buf: make([]byte, 0, 32<<10)}
}}

func getAppender(w io.Writer) *appender {
	a := appenders.Get().(*appender)
	a.w, a.buf, a.n, a.err = w, a.buf[:0], 0, nil
	return a
}

func putAppender(a *appender) {
	a.w = nil
	appenders.Put(a)
}

// flush drains buf into w; after the first error it only discards.
func (a *appender) flush() {
	if len(a.buf) == 0 {
		return
	}
	if a.err == nil {
		if _, err := a.w.Write(a.buf); err != nil {
			a.err = err
		}
	}
	a.buf = a.buf[:0]
}

// grow makes room for need more bytes, flushing if the scratch would
// otherwise spill past its capacity (oversized single values simply
// extend the buffer).
func (a *appender) grow(need int) {
	if len(a.buf)+need > cap(a.buf) {
		a.flush()
	}
}

// total flushes and returns the bytes appended and the first error.
func (a *appender) total() (int64, error) {
	a.flush()
	return a.n, a.err
}

func (a *appender) u8(v byte) {
	a.grow(1)
	a.buf = append(a.buf, v)
	a.n++
}

func (a *appender) bool8(v bool) {
	if v {
		a.u8(1)
	} else {
		a.u8(0)
	}
}

func (a *appender) u32le(v uint32) {
	a.grow(4)
	a.buf = binary.LittleEndian.AppendUint32(a.buf, v)
	a.n += 4
}

func (a *appender) u64le(v uint64) {
	a.grow(8)
	a.buf = binary.LittleEndian.AppendUint64(a.buf, v)
	a.n += 8
}

func (a *appender) i64le(v int64) { a.u64le(uint64(v)) }

// f64bits writes a plain float field, which must be finite.
func (a *appender) f64bits(v float64) {
	if (math.IsNaN(v) || math.IsInf(v, 0)) && a.err == nil {
		a.err = fmt.Errorf("non-finite value %v in a plain float field", v)
	}
	a.u64le(math.Float64bits(v))
}

// f64canon writes a float field that may be non-finite, with NaN
// canonicalised.
func (a *appender) f64canon(v float64) {
	if math.IsNaN(v) {
		a.u64le(canonicalNaN)
		return
	}
	a.u64le(math.Float64bits(v))
}

func (a *appender) str(s string) {
	a.u32le(uint32(len(s)))
	a.grow(len(s))
	a.buf = append(a.buf, s...)
	a.n += int64(len(s))
}

func (a *appender) f64Slice(xs []float64) {
	if xs == nil {
		a.u32le(v3NilSlice)
		return
	}
	a.u32le(uint32(len(xs)))
	for _, v := range xs {
		a.f64canon(v)
	}
}

func (a *appender) pairValue(p core.Pair) {
	a.f64bits(p.InitMHz)
	a.f64bits(p.TargetMHz)
}

func (a *appender) pairSlice(ps []core.Pair) {
	if ps == nil {
		a.u32le(v3NilSlice)
		return
	}
	a.u32le(uint32(len(ps)))
	for _, p := range ps {
		a.pairValue(p)
	}
}

// encodeBlobV3To streams the blob of a campaign result into w
// (typically the atomic-rename staging file or a network body) through
// the pooled gzip writer and returns the body size for the index's
// RawBytes.
func encodeBlobV3To(w io.Writer, k Key, res *core.Result) (int64, error) {
	if _, err := w.Write(v3Magic[:]); err != nil {
		return 0, fmt.Errorf("store: encode %s: %w", k, err)
	}
	gz := gzipWriters.Get().(*gzip.Writer)
	gz.Reset(w)
	a := getAppender(gz)
	encodeV3Body(a, k, res)
	n, err := a.total()
	putAppender(a)
	cerr := gz.Close()
	gzipWriters.Put(gz)
	if err == nil {
		err = cerr
	}
	if err != nil {
		return n, fmt.Errorf("store: encode %s: %w", k, err)
	}
	return n, nil
}

// EncodeBlobV3 renders the blob — what Put writes to disk and the
// network client ships. Deterministic for a given key and build (fixed
// gzip level, canonical NaN bits, no gzip header metadata), so
// concurrent identical writers converge byte for byte.
func EncodeBlobV3(k Key, res *core.Result) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("store: nil result for %s", k)
	}
	var buf bytes.Buffer
	if _, err := encodeBlobV3To(&buf, k, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func encodeV3Body(a *appender, k Key, res *core.Result) {
	a.u32le(uint32(SchemaVersion))
	a.u64le(0) // reserved
	a.str(k.Digest)
	a.str(k.Profile)
	a.i64le(int64(k.Instance))

	a.str(res.DeviceName)
	a.str(res.Architecture)
	a.i64le(res.CaptureHintNs)

	if res.Phase1 == nil {
		a.u8(0)
	} else {
		a.u8(1)
		p1 := res.Phase1
		if len(p1.Stats) == 0 {
			a.u32le(v3NilSlice) // append-built: empty ⇒ nil
		} else {
			freqs := make([]float64, 0, len(p1.Stats))
			for f := range p1.Stats {
				freqs = append(freqs, f)
			}
			sortFloat64s(freqs)
			a.u32le(uint32(len(freqs)))
			for _, f := range freqs {
				fs := p1.Stats[f]
				a.f64bits(fs.FreqMHz)
				a.i64le(int64(fs.Iter.N))
				a.f64canon(fs.Iter.Mean)
				a.f64canon(fs.Iter.Std)
				a.bool8(fs.Normalish)
			}
		}
		a.pairSlice(p1.ValidPairs)
		a.pairSlice(p1.Excluded)
		if p1.Unstable == nil {
			a.u32le(v3NilSlice)
		} else {
			a.u32le(uint32(len(p1.Unstable)))
			for _, v := range p1.Unstable {
				a.f64bits(v)
			}
		}
	}

	if len(res.Pairs) == 0 {
		a.u32le(v3NilSlice) // append-built: empty ⇒ nil
		return
	}
	a.u32le(uint32(len(res.Pairs)))
	for _, pr := range res.Pairs {
		if pr == nil {
			a.u8(0)
			continue
		}
		a.u8(1)
		a.pairValue(pr.Pair)
		if len(pr.Measurements) == 0 {
			a.u32le(v3NilSlice) // append-built: empty ⇒ nil
		} else {
			a.u32le(uint32(len(pr.Measurements)))
			for i := range pr.Measurements {
				m := &pr.Measurements[i]
				a.pairValue(m.Pair)
				a.f64canon(m.LatencyMs)
				a.i64le(m.TsDevNs)
				a.i64le(m.TeDevNs)
				a.i64le(int64(m.SM))
				a.i64le(int64(m.TransitionIndex))
				a.f64canon(m.InjectedMs)
				a.i64le(m.SyncSpreadNs)
			}
		}
		a.f64Slice(pr.Samples)
		a.f64Slice(pr.Injected)
		a.i64le(int64(pr.Attempts))
		a.i64le(int64(pr.Failures))
		a.i64le(int64(pr.DiscardedByThrottle))
		a.i64le(int64(pr.ThrottleEvents))
		a.bool8(pr.Skipped)
		a.str(pr.SkipReason)
		a.f64Slice(pr.Kept)
		a.f64Slice(pr.Outliers)
		if pr.Clusters == nil {
			a.u8(0)
		} else {
			a.u8(1)
			c := pr.Clusters
			if c.Labels == nil {
				a.u32le(v3NilSlice)
			} else {
				a.u32le(uint32(len(c.Labels)))
				for _, l := range c.Labels {
					a.i64le(int64(l))
				}
			}
			a.i64le(int64(c.NumClusters))
			a.f64canon(c.Eps)
			a.i64le(int64(c.MinPts))
		}
		s := pr.Summary
		a.i64le(int64(s.N))
		a.f64canon(s.Mean)
		a.f64canon(s.Std)
		a.f64canon(s.Min)
		a.f64canon(s.Q05)
		a.f64canon(s.Q25)
		a.f64canon(s.Median)
		a.f64canon(s.Q75)
		a.f64canon(s.Q95)
		a.f64canon(s.Max)
		a.f64canon(pr.FinalRSE)
	}
}

// sortFloat64s is an insertion sort: phase-1 sweeps a handful of
// frequencies, and the tiny fixed cost avoids pulling sort's interface
// machinery into the encode path.
func sortFloat64s(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// v3Reader is the bounds-checked cursor over an inflated body. The
// first malformed read latches err and turns every subsequent read into
// a cheap zero-value no-op, so decoders need no per-field error
// plumbing; strings and slices are copied out, because the backing
// buffer is pooled scratch that is recycled the moment the parse
// returns.
type v3Reader struct {
	b   []byte
	off int
	err error
}

func (r *v3Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *v3Reader) need(n int64) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || int64(len(r.b)-r.off) < n {
		r.fail("truncated body: need %d bytes at offset %d of %d", n, r.off, len(r.b))
		return false
	}
	return true
}

func (r *v3Reader) u8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *v3Reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *v3Reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *v3Reader) i64() int64   { return int64(r.u64()) }
func (r *v3Reader) int() int     { return int(r.u64()) }
func (r *v3Reader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads a slice tag and validates it against the bytes actually
// remaining: n elements of elemSize bytes each must fit in the unread
// body. Returns -1 for the nil tag and for any error.
func (r *v3Reader) count(elemSize int64) int {
	tag := r.u32()
	if r.err != nil || tag == v3NilSlice {
		return -1
	}
	n := int64(tag)
	if n > int64(len(r.b)-r.off)/elemSize {
		r.fail("slice count %d overruns the %d-byte body", n, len(r.b))
		return -1
	}
	return int(n)
}

func (r *v3Reader) str() string {
	n := r.u32()
	if !r.need(int64(n)) {
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)]) // copies out of the pooled buffer
	r.off += int(n)
	return s
}

func (r *v3Reader) f64Slice() []float64 {
	n := r.count(8)
	if n < 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

func (r *v3Reader) pairValue() core.Pair {
	return core.Pair{InitMHz: r.f64(), TargetMHz: r.f64()}
}

func (r *v3Reader) pairSlice() []core.Pair {
	n := r.count(16)
	if n < 0 {
		return nil
	}
	out := make([]core.Pair, n)
	for i := range out {
		out[i] = r.pairValue()
	}
	return out
}

// decodeV3Body parses an inflated body straight into the envelope
// identity and the campaign result, with the schema check; the caller
// checks the digest.
func decodeV3Body(body []byte) (Key, *core.Result, error) {
	r := &v3Reader{b: body}
	if schema := r.u32(); r.err == nil && schema != SchemaVersion {
		return Key{}, nil, fmt.Errorf("schema %d, want %d", schema, SchemaVersion)
	}
	r.u64() // reserved
	k := Key{Digest: r.str(), Profile: r.str(), Instance: r.int()}

	res := &core.Result{DeviceName: r.str(), Architecture: r.str(), CaptureHintNs: r.i64()}
	if r.u8() != 0 {
		n := r.count(33) // 8+8+8+8+1 per stat
		p1 := &core.Phase1Result{Stats: make(map[float64]core.FreqStats, max(n, 0))}
		for i := 0; i < n; i++ {
			fs := core.FreqStats{FreqMHz: r.f64()}
			fs.Iter = stats.MeanStd{N: r.int(), Mean: r.f64(), Std: r.f64()}
			fs.Normalish = r.u8() != 0
			p1.Stats[fs.FreqMHz] = fs
		}
		p1.ValidPairs = r.pairSlice()
		p1.Excluded = r.pairSlice()
		if n := r.count(8); n >= 0 {
			p1.Unstable = make([]float64, n)
			for i := range p1.Unstable {
				p1.Unstable[i] = r.f64()
			}
		}
		res.Phase1 = p1
	}

	// A pair is at minimum a presence byte; deeper counts are checked
	// against the remaining bytes as they stream past.
	if n := r.count(1); n > 0 {
		res.Pairs = make([]*core.PairResult, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			if r.u8() == 0 {
				res.Pairs = append(res.Pairs, nil)
				continue
			}
			res.Pairs = append(res.Pairs, r.pair())
		}
	}

	if r.err != nil {
		return Key{}, nil, r.err
	}
	if r.off != len(r.b) {
		return Key{}, nil, fmt.Errorf("%d trailing bytes after body", len(r.b)-r.off)
	}
	return k, res, nil
}

func (r *v3Reader) pair() *core.PairResult {
	pr := &core.PairResult{Pair: r.pairValue()}
	if n := r.count(72); n > 0 { // 16+8*7 per measurement
		pr.Measurements = make([]core.Measurement, n)
		for i := range pr.Measurements {
			pr.Measurements[i] = core.Measurement{
				Pair:            r.pairValue(),
				LatencyMs:       r.f64(),
				TsDevNs:         r.i64(),
				TeDevNs:         r.i64(),
				SM:              r.int(),
				TransitionIndex: r.int(),
				InjectedMs:      r.f64(),
				SyncSpreadNs:    r.i64(),
			}
		}
	}
	pr.Samples = r.f64Slice()
	pr.Injected = r.f64Slice()
	pr.Attempts = r.int()
	pr.Failures = r.int()
	pr.DiscardedByThrottle = r.int()
	pr.ThrottleEvents = r.int()
	pr.Skipped = r.u8() != 0
	pr.SkipReason = r.str()
	pr.Kept = r.f64Slice()
	pr.Outliers = r.f64Slice()
	if r.u8() != 0 {
		c := &cluster.Result{}
		if n := r.count(8); n >= 0 {
			c.Labels = make([]int, n)
			for i := range c.Labels {
				c.Labels[i] = r.int()
			}
		}
		c.NumClusters = r.int()
		c.Eps = r.f64()
		c.MinPts = r.int()
		pr.Clusters = c
	}
	pr.Summary = stats.Summary{
		N: r.int(), Mean: r.f64(), Std: r.f64(), Min: r.f64(),
		Q05: r.f64(), Q25: r.f64(), Median: r.f64(),
		Q75: r.f64(), Q95: r.f64(), Max: r.f64(),
	}
	pr.FinalRSE = r.f64()
	return pr
}

// inflateV3 inflates the gzip stream after the magic into the pooled
// scratch buffer: single member, bounded inflation, no trailing bytes.
// The full inflate-before-parse is what verifies the gzip CRC, so a
// truncated or bit-flipped stream whose prefix still deflates is never
// served. The returned buffer must be released with putDecodeBuf once
// the parse has copied everything it keeps.
func inflateV3(data []byte) (*bytes.Buffer, error) {
	r := bytes.NewReader(data[len(v3Magic):])
	gz := gzipReaders.Get().(*gzip.Reader)
	if err := gz.Reset(r); err != nil {
		gzipReaders.Put(gz)
		return nil, err
	}
	// Single-member only: in (the default) multistream mode a second
	// concatenated gzip member would be transparently appended, letting
	// arbitrary padding hide behind a valid digest.
	gz.Multistream(false)
	buf := decodeBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, rerr := buf.ReadFrom(io.LimitReader(gz, maxBodyBytes+1))
	gz.Close()
	gzipReaders.Put(gz)
	if rerr != nil {
		putDecodeBuf(buf)
		return nil, rerr
	}
	if int64(buf.Len()) > maxBodyBytes {
		putDecodeBuf(buf)
		return nil, fmt.Errorf("body inflates past %d bytes", maxBodyBytes)
	}
	// flate never reads past the final block and gzip reads exactly the
	// 8-byte trailer, so whatever remains in r is trailing data.
	if r.Len() != 0 {
		putDecodeBuf(buf)
		return nil, fmt.Errorf("%d trailing bytes after container", r.Len())
	}
	return buf, nil
}

// decodePasses counts every full blob parse this process has
// performed. It exists for the single-validation pipeline contract:
// tests instrument it to prove that a warm remote Get decodes the wire
// bytes exactly once before they land in the local tier verbatim.
var decodePasses atomic.Int64

// DecodePasses returns the number of blob parses performed so far —
// an instrumentation hook, not an operational counter.
func DecodePasses() int64 { return decodePasses.Load() }

// parseBlob validates blob bytes against the digest they are stored
// (or addressed) under and returns the envelope key, the decoded
// result and the body size. Anything else — bytes without the v3
// magic (including the retired JSON containers), a broken gzip stream
// or checksum, a malformed body, schema drift, a blob renamed onto the
// wrong digest, trailing garbage — wraps ErrInvalidBlob; callers treat
// it as a cache miss and recompute.
func parseBlob(data []byte, digest string) (Key, *core.Result, int64, error) {
	decodePasses.Add(1)
	invalid := func(cause error) (Key, *core.Result, int64, error) {
		return Key{}, nil, 0, fmt.Errorf("store: blob %s: %w: %v", digest, ErrInvalidBlob, cause)
	}
	if !bytes.HasPrefix(data, v3Magic[:]) {
		return invalid(errors.New("not a v3 container"))
	}
	buf, err := inflateV3(data)
	if err != nil {
		return invalid(err)
	}
	bodyBytes := int64(buf.Len())
	k, res, err := decodeV3Body(buf.Bytes())
	putDecodeBuf(buf)
	if err != nil {
		return invalid(err)
	}
	if k.Digest != digest {
		return invalid(fmt.Errorf("blob digest %s does not match key", k.Digest))
	}
	return k, res, bodyBytes, nil
}

// ValidateBlob parses and validates raw blob bytes against a digest and
// returns the decoded result. Callers that go on to store the bytes
// should use ValidateBlobBytes instead, which keeps the validated bytes
// and the decoded result together.
func ValidateBlob(data []byte, digest string) (*core.Result, error) {
	_, res, _, err := parseBlob(data, digest)
	return res, err
}
