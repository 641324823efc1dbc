package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending, so the helper must sort
	}
	return out
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n           int
		q           float64
		value, gotQ float64
		beyond      int
	}{
		// Enough samples: the percentile asked for, 10 beyond it.
		{1000, 0.99, 990, 0.99, 10},
		{2000, 0.99, 1980, 0.99, 20},
		// Too few beyond p99: lowered to the rank with 10 beyond.
		{500, 0.99, 490, 0.98, 10},
		{11, 0.99, 1, 1.0 / 11, 10},
		// No rank has 10 beyond: the maximum, flagged by Beyond 0.
		{10, 0.99, 10, 1, 0},
		{3, 0.99, 3, 1, 0},
		{1, 0.5, 1, 1, 0},
	}
	for _, c := range cases {
		got := tailPercentile(seq(c.n), c.q)
		if got.Value != c.value || math.Abs(got.Q-c.gotQ) > 1e-12 || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d q=%v: got %+v, want value %v q %v beyond %d", c.n, c.q, got, c.value, c.gotQ, c.beyond)
		}
	}
	if got := tailPercentile(nil, 0.99); got != (tail{}) {
		t.Errorf("no samples: got %+v", got)
	}
}

// Whenever more than minBeyond samples exist, the reported percentile has
// at least minBeyond samples beyond it and is never above the nearest-rank
// percentile asked for.
func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for n := minBeyond + 1; n < 3000; n += 7 {
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			got := tailPercentile(seq(n), q)
			nearest := math.Ceil(q * float64(n)) // seq(n) holds 1..n
			if got.Beyond < minBeyond || got.Value > nearest {
				t.Fatalf("n=%d q=%v: %+v", n, q, got)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd count: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
}

func TestPairedOverhead(t *testing.T) {
	// Pair 1's traced op fails and leaves the pair out; the others run
	// their halves in alternating order.
	var order []bool
	got := pairedOverhead(4, func(i int, traced bool) (float64, bool) {
		order = append(order, traced)
		if !traced {
			return 2, true
		}
		return []float64{2.2, 0, 2.1, 2.4}[i], i != 1
	})
	if want := 100 * (1.1 - 1); math.Abs(got-want) > 1e-9 {
		t.Errorf("overhead %v, want %v (median of 10%%, 5%%, 20%%)", got, want)
	}
	wantOrder := []bool{false, true, true, false, false, true, true, false}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("op order %v, want %v", order, wantOrder)
		}
	}
	if got := pairedOverhead(2, func(int, bool) (float64, bool) { return 1, false }); got != 0 {
		t.Errorf("all pairs failed: overhead %v, want 0", got)
	}
}
