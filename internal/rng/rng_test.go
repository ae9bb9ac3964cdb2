package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seeds diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws across different seeds", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(7, "noise")
	b := Derive(7, "delay")
	c := Derive(7, "noise")
	for i := 0; i < 100; i++ {
		av, bv, cv := a.Uint64(), b.Uint64(), c.Uint64()
		if av != cv {
			t.Fatalf("same-name derivation diverged at draw %d", i)
		}
		if av == bv {
			t.Fatalf("different-name derivation collided at draw %d", i)
		}
	}
}

func TestChildDeriveDoesNotConsumeParentState(t *testing.T) {
	p1 := New(99)
	p2 := New(99)
	_ = p1.Derive("child")
	for i := 0; i < 100; i++ {
		if p1.Uint64() != p2.Uint64() {
			t.Fatalf("deriving a child perturbed the parent at draw %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %g far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulliEdgeCases(t *testing.T) {
	s := New(6)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if s.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !s.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	s := New(7)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency %g", freq)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(8)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Uniform(-2,5) out of range: %g", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(9)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal mean %g far from 10", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("Normal variance %g far from 4", variance)
	}
}

func TestBoolIsFair(t *testing.T) {
	s := New(11)
	const n = 100000
	trues := 0
	for i := 0; i < n; i++ {
		if s.Bool() {
			trues++
		}
	}
	freq := float64(trues) / n
	if math.Abs(freq-0.5) > 0.01 {
		t.Fatalf("Bool true-frequency %g", freq)
	}
}

// TestNormalDigest pins the bits of 2^20 Normal draws. Normal's only
// transcendental inputs are its own log and math.Sqrt (correctly
// rounded everywhere), so every architecture must reproduce amd64's
// draws exactly; a fused multiply-add or a platform log would move this
// digest (GOARCH=386 runs it in make test386).
func TestNormalDigest(t *testing.T) {
	const want = "387a16bf29c71186961b904d99666504be2defc79e41f6aa3dddfcc962f3f409"
	s := New(20160226)
	h := sha256.New()
	var b [8]byte
	for i := 0; i < 1<<20; i++ {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(s.Normal(3, 2)))
		h.Write(b[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("digest of 2^20 Normal draws = %s, want %s", got, want)
	}
}
