// Package rng provides deterministic, named random-number streams.
//
// Icewafl's pollution process is reproducible: running the same pipeline
// with the same seed over the same input must yield an identical polluted
// stream (paper §2.3). To keep that guarantee while still allowing several
// polluters — and several parallel sub-streams — to draw randomness
// independently, every consumer obtains its own Stream derived from a root
// seed and a stable name. Two streams with different names never share
// state, so adding a polluter to one sub-pipeline cannot perturb the
// random draws of another.
package rng

import (
	"hash/fnv"
	"math"
)

// Stream is a deterministic pseudo-random number generator. It implements
// the xoshiro256** algorithm, seeded through SplitMix64 so that even
// adjacent seeds produce uncorrelated sequences. Stream is not safe for
// concurrent use; derive one stream per goroutine instead.
type Stream struct {
	s [4]uint64
	// cached spare normal deviate for Box-Muller
	hasSpare bool
	spare    float64
	// init is the construction-time state, so a stream can rewind to its
	// first draw (per-run pipeline reset).
	init [4]uint64
}

// New returns a Stream seeded from seed.
func New(seed int64) *Stream {
	st := &Stream{}
	st.reseed(uint64(seed))
	return st
}

// Derive returns an independent Stream obtained from seed and a stable
// name. The same (seed, name) pair always yields the same stream.
func Derive(seed int64, name string) *Stream {
	h := fnv.New64a()
	h.Write([]byte(name))
	st := &Stream{}
	st.reseed(uint64(seed) ^ h.Sum64())
	return st
}

// Derive returns a child stream whose sequence is determined by the parent
// seed material and name, without consuming state from the parent.
func (s *Stream) Derive(name string) *Stream {
	h := fnv.New64a()
	h.Write([]byte(name))
	child := &Stream{}
	child.reseed(s.s[0] ^ s.s[2] ^ h.Sum64())
	return child
}

func (s *Stream) reseed(seed uint64) {
	// SplitMix64 expansion of the seed into four words of state.
	x := seed
	for i := 0; i < 4; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s.s[i] = z ^ (z >> 31)
	}
	s.hasSpare = false
	s.init = s.s
}

// Reset rewinds the stream to its construction-time state, so the next
// draw repeats the very first draw. It is the basis of per-run pipeline
// resets: re-running a compiled pipeline after Reset replays exactly the
// random sequence of its first run.
func (s *Stream) Reset() {
	s.s = s.init
	s.hasSpare = false
	s.spare = 0
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the underlying xoshiro256** sequence.
func (s *Stream) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(float64(s.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64() % uint64(n))
}

// Bool returns the outcome of a fair coin toss.
func (s *Stream) Bool() bool {
	return s.Uint64()&1 == 1
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Uniform returns a uniform value in [a, b).
//
// Here, in Normal and in Float64, float64(x*y) rounds a product before
// any addition, so no architecture fuses the two into one multiply-add,
// even where inlined, and every platform draws amd64's bits (fmacheck).
func (s *Stream) Uniform(a, b float64) float64 {
	return a + float64((b-a)*s.Float64())
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the Box-Muller transform.
func (s *Stream) Normal(mean, stddev float64) float64 {
	if s.hasSpare {
		s.hasSpare = false
		return mean + float64(stddev*s.spare)
	}
	var u, v, r float64
	for {
		u = 2*float64(s.Float64()) - 1
		v = 2*float64(s.Float64()) - 1
		r = float64(u*u) + float64(v*v)
		if r > 0 && r < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * log(r) / r)
	s.spare = v * f
	s.hasSpare = true
	return mean + float64(stddev*u*f)
}

// log is math.Log's pure-Go algorithm (FreeBSD's e_log.c) for Normal's
// r in (0, 1), with float64() at every product that meets an add.
// math.Log is assembly on amd64 and s390x, but elsewhere compiles this
// algorithm with fused multiply-adds (arm64, ppc64le, riscv64), which
// would move every draw. Rounded as here it matched amd64's math.Log on
// 10^7 of Normal's r values, and the digest test holds it to that.
func log(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01 // 3fe62e42 fee00000
		ln2Lo = 1.90821492927058770002e-10 // 3dea39ef 35793c76
		l1    = 6.666666666666735130e-01   // 3FE55555 55555593
		l2    = 3.999999999940941908e-01   // 3FD99999 9997FA04
		l3    = 2.857142874366239149e-01   // 3FD24924 94229359
		l4    = 2.222219843214978396e-01   // 3FCC71C5 1D8E78AF
		l5    = 1.818357216161805012e-01   // 3FC74664 96CB03DE
		l6    = 1.531383769920937332e-01   // 3FC39A09 D078C69F
		l7    = 1.479819860511658591e-01   // 3FC2F112 DF3E5244
	)
	f1, ki := math.Frexp(x)
	if f1 < math.Sqrt2/2 {
		f1 = float64(f1 * 2)
		ki--
	}
	f := f1 - 1
	k := float64(ki)
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	r := t1 + t2
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f)
}
