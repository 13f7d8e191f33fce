package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// The value model. Every series has a center and a Gaussian noise width; a
// small share of points are large outliers on either side, which is what
// BOS separates from the bit-packed center. Float series carry two decimals:
// the model keeps them as scaled integers (hundredths) and formats them as
// decimal text, so the float a series stores is the float64 parsed from the
// text that was sent.

const (
	baseT       = int64(1_700_000_000_000) // first timestamp, ms since the epoch
	outlierRate = 0.01                     // share of points drawn as outliers
	floatShare  = 4                        // every floatShare-th series is a float series
)

// spec describes one generated series.
type spec struct {
	name   string
	float  bool
	center int64   // hundredths for float series
	sigma  float64 // noise width, same unit as center
	step   int64   // timestamp step in ms
	seed   int64
}

// makeSpecs derives n series specs from the workload seed. Series i is a
// float series when i%floatShare == floatShare-1, so about one in four.
// Noise widths come from a fixed ladder of sixteen steps, series i taking
// step i%16, so every seed yields the same mix of bit widths; the seed
// draws the centers and every point.
func makeSpecs(seed int64, n int, prefix string, step int64) []spec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]spec, n)
	for i := range out {
		s := spec{name: fmt.Sprintf("%s%05d", prefix, i), step: step, seed: rng.Int63()}
		k := float64(i % 16)
		if i%floatShare == floatShare-1 {
			s.float = true
			s.center = 1000 + rng.Int63n(9000) // 10.00 .. 100.00
			s.sigma = 5 * math.Pow(1.2, k)     // 0.05 .. 0.77
		} else {
			s.center = 1000 + rng.Int63n(49000)
			s.sigma = 4 * math.Pow(1.4, k) // 4 .. 622
		}
		out[i] = s
	}
	return out
}

// gen produces one series' points in order.
type gen struct {
	s   *spec
	rng *rand.Rand
	n   int64 // points produced so far
}

func newGen(s *spec) *gen { return &gen{s: s, rng: rand.New(rand.NewSource(s.seed))} }

// next returns the next point's timestamp and (scaled) value.
func (g *gen) next() (int64, int64) {
	v := float64(g.s.center) + g.rng.NormFloat64()*g.s.sigma
	if g.rng.Float64() < outlierRate {
		mag := (20 + g.rng.Float64()*180) * g.s.sigma
		if g.rng.Intn(2) == 0 {
			mag = -mag
		}
		v += mag
	}
	t := baseT + g.n*g.s.step
	g.n++
	return t, int64(math.Round(v))
}

// appendLine appends one line-protocol line "series,t,value\n".
func appendLine(dst []byte, s *spec, t, v int64) []byte {
	dst = append(dst, s.name...)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, t, 10)
	dst = append(dst, ',')
	if s.float {
		dst = appendHundredths(dst, v)
	} else {
		dst = strconv.AppendInt(dst, v, 10)
	}
	return append(dst, '\n')
}

// appendHundredths formats a scaled integer as decimal text with two
// decimals: 2357 -> "23.57", -5 -> "-0.05".
func appendHundredths(dst []byte, v int64) []byte {
	if v < 0 {
		dst = append(dst, '-')
		v = -v
	}
	dst = strconv.AppendInt(dst, v/100, 10)
	dst = append(dst, '.', byte('0'+v%100/10), byte('0'+v%10))
	return dst
}

// floatOf is the float64 a server must store for a scaled value: the
// value parsed from the decimal text the benchmark sends.
func floatOf(v int64) float64 {
	f, err := strconv.ParseFloat(string(appendHundredths(nil, v)), 64)
	if err != nil {
		panic(err) // appendHundredths always emits valid decimal text
	}
	return f
}

// point is one model point. For float series V is the scaled value.
type point struct{ T, V int64 }

// modelPoints regenerates the first n points of a series.
func modelPoints(s *spec, n int) []point {
	g := newGen(s)
	out := make([]point, n)
	for i := range out {
		out[i].T, out[i].V = g.next()
	}
	return out
}
