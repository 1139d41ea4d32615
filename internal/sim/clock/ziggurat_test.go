package clock

import (
	"math"
	"math/rand/v2"
	"testing"
)

// tape is a rand.Source over a PCG that records how many words each
// draw took and the first of them, so the reference side of
// TestNormalMatchesMathRandV2 can tell which ziggurat branch ran.
type tape struct {
	pcg   *rand.PCG
	n     int
	first uint64
}

func (s *tape) Uint64() uint64 {
	v := s.pcg.Uint64()
	if s.n == 0 {
		s.first = v
	}
	s.n++
	return v
}

// TestNormalMatchesMathRandV2 pins the concrete ziggurat to
// math/rand/v2: 10⁷ Normal(0,1) draws, plus LogNormal, Float64 and IntN
// draws interleaved on both sides, must match bit for bit on fresh,
// reseeded and child streams. The run must reach both rare branches —
// the base strip's tail sampler and a wedge rejection — or it proves
// nothing about them.
func TestNormalMatchesMathRandV2(t *testing.T) {
	const total = 10_000_000
	type stream struct {
		name string
		r    *Rand
		seed Seed
	}
	var streams []stream
	for _, s := range []Seed{{1, 2}, {0x6c6174657374, 0}, {math.MaxUint64, 0x9e3779b97f4a7c15}} {
		streams = append(streams, stream{"new", NewRand(s.s1, s.s2), s})
	}
	// A used stream restarted in place, and a child stream, each checked
	// against a reference seeded with the words a twin parent hands out.
	reseeded, twin := NewRand(3, 4), NewRand(5, 6)
	reseeded.Normal(0, 1)
	s := twin.ChildSeed(0x1001)
	reseeded.Reseed(s)
	streams = append(streams, stream{"reseed", reseeded, s})
	parent, twin := NewRand(7, 8), NewRand(7, 8)
	streams = append(streams, stream{"child", parent.Child(42), twin.ChildSeed(42)})

	var baseStrip, wedgeRejects int
	per := total / len(streams)
	for _, st := range streams {
		src := &tape{pcg: rand.NewPCG(st.seed.s1, st.seed.s2)}
		ref := rand.New(src)
		for i := range per {
			switch {
			case i%7 == 3:
				if got, want := st.r.Float64(), ref.Float64(); got != want {
					t.Fatalf("%s: draw %d Float64 = %v, math/rand/v2 %v", st.name, i, got, want)
				}
			case i%11 == 5:
				if got, want := st.r.IntN(1000), ref.IntN(1000); got != want {
					t.Fatalf("%s: draw %d IntN = %d, math/rand/v2 %d", st.name, i, got, want)
				}
			case i%13 == 8:
				got := st.r.LogNormal(0.5, 2)
				if want := math.Exp(0.5 + 2*ref.NormFloat64()); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: draw %d LogNormal = %v, math/rand/v2 %v", st.name, i, got, want)
				}
			}
			src.n = 0
			got := st.r.Normal(0, 1)
			z := ref.NormFloat64()
			if want := 0 + 1*z; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: draw %d Normal = %v (%#x), math/rand/v2 %v (%#x)",
					st.name, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			// Classify the reference draw by its first word, as the
			// ziggurat does: outside the strip's rectangle with i == 0 is
			// the base strip; with i > 0 it is the wedge test, which
			// rejected if the draw needed more than the word and one
			// uniform.
			u := src.first
			j, strip := int32(u), u>>32&0x7F
			if absInt32(j) >= kn[strip] {
				if strip == 0 {
					baseStrip++
					if math.Abs(z) <= rn {
						t.Fatalf("%s: draw %d from the base strip is %v, inside ±%v", st.name, i, z, rn)
					}
				} else if src.n > 2 {
					wedgeRejects++
				}
			}
		}
	}
	if baseStrip == 0 || wedgeRejects == 0 {
		t.Fatalf("rare branches not reached: %d base-strip draws, %d wedge rejections", baseStrip, wedgeRejects)
	}
	t.Logf("%d draws: %d base-strip, %d wedge rejections", per*len(streams), baseStrip, wedgeRejects)
}

var normalSink float64

// BenchmarkNormal compares one standard normal draw from the simulator's
// stream, which runs the ziggurat on its concrete PCG, with the same
// draw through math/rand/v2's rand.Source interface.
func BenchmarkNormal(b *testing.B) {
	b.Run("clock", func(b *testing.B) {
		r := NewRand(1, 2)
		for range b.N {
			normalSink += r.Normal(0, 1)
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		r := rand.New(rand.NewPCG(1, 2))
		for range b.N {
			normalSink += r.NormFloat64()
		}
	})
}
