package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: with fewer, one outlier more or less moves the number.
const minBeyond = 10

// tail is one reported tail percentile with the samples behind it.
type tail struct {
	Value  float64 `json:"value"`
	Q      float64 `json:"q"`      // quantile of the reported rank (rank / N)
	N      int     `json:"n"`      // samples
	Beyond int     `json:"beyond"` // samples ranked above the reported one
}

// tailPercentile reports quantile q of samples by nearest rank, lowered
// until at least minBeyond samples lie beyond it. When no rank has that
// many (minBeyond or fewer samples) it reports the maximum, and Beyond 0
// says so.
func tailPercentile(samples []float64, q float64) tail {
	n := len(samples)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	r := int(math.Ceil(q * float64(n)))
	r = max(1, min(r, n))
	if n-r < minBeyond {
		r = n - minBeyond
	}
	if r < 1 {
		r = n
	}
	return tail{Value: s[r-1], Q: float64(r) / float64(n), N: n, Beyond: n - r}
}

// median is the middle sample (the mean of the two middle ones for an
// even count); 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geoSavings reduces paired (baseline, candidate) runs to the paper's
// headline form: geomean energy saving and geomean slowdown, in percent,
// exactly as experiments.Compare aggregates Fig. 10.
func geoSavings(baseJ, candJ, baseS, candS []float64) (savingsPct, slowdownPct float64) {
	re := make([]float64, len(baseJ))
	rt := make([]float64, len(baseJ))
	for i := range baseJ {
		re[i] = candJ[i] / baseJ[i]
		rt[i] = candS[i] / baseS[i]
	}
	return 100 * (1 - stats.GeoMean(re)), 100 * (stats.GeoMean(rt) - 1)
}

// pairedOverhead times n interleaved pairs of one untraced and one traced
// op, the order alternating from pair to pair so that drift in the host's
// speed falls on both halves alike, and returns the median over the pairs
// of the traced op's extra wall time, in percent of the untraced op's.
// op runs pair i's op and returns its wall seconds, or false when the op
// failed; a pair with a failed op is left out.
func pairedOverhead(n int, op func(i int, traced bool) (float64, bool)) float64 {
	var ratios []float64
	for i := 0; i < n; i++ {
		var secs [2]float64
		ok := true
		for _, traced := range [2]bool{i%2 == 1, i%2 == 0} {
			s, good := op(i, traced)
			ok = ok && good
			if traced {
				secs[1] = s
			} else {
				secs[0] = s
			}
		}
		if ok && secs[0] > 0 {
			ratios = append(ratios, secs[1]/secs[0])
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return 100 * (median(ratios) - 1)
}
