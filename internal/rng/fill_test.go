package rng

import "testing"

// Fill must be indistinguishable from repeated Uint64 calls: the columnar
// runner's byte-identity guarantee rests on draw-ahead preserving the
// exact sequence.
func TestFillMatchesSequentialUint64(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		a := New(42)
		b := New(42)
		want := make([]uint64, n)
		for i := range want {
			want[i] = a.Uint64()
		}
		got := make([]uint64, n)
		b.Fill(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: Fill[%d] = %d, sequential Uint64 = %d", n, i, got[i], want[i])
			}
		}
		// The streams must also agree on the draw *after* the sweep.
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: post-fill state diverged", n)
		}
	}
}

func TestToFloat64MatchesFloat64(t *testing.T) {
	a := New(-3)
	b := New(-3)
	for i := 0; i < 100; i++ {
		if got, want := ToFloat64(b.Uint64()), a.Float64(); got != want {
			t.Fatalf("draw %d: ToFloat64 = %g, Float64 = %g", i, got, want)
		}
	}
}

// Interleaving Fill with scalar draws must still track the scalar-only
// sequence — the runner fills per batch, then keeps drawing per row.
func TestFillInterleavedWithScalarDraws(t *testing.T) {
	a := New(99)
	b := New(99)
	var got, want []uint64
	buf := make([]uint64, 5)
	for round := 0; round < 10; round++ {
		b.Fill(buf)
		got = append(got, buf...)
		got = append(got, b.Uint64())
		for i := 0; i < 6; i++ {
			want = append(want, a.Uint64())
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d diverged", i)
		}
	}
}
