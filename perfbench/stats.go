package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of vals by linear interpolation
// between closest ranks; vals need not be sorted. Empty input yields 0.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// gmean is the geometric mean of the positive entries of vals (0 if none).
func gmean(vals []float64) float64 {
	var logSum float64
	n := 0
	for _, v := range vals {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// chunkedTail splits lats (in the order the operations ran) into stretches
// just long enough to leave ten samples beyond the want percentile, takes
// that percentile of each stretch and returns the median over stretches,
// with the number of stretches and their length. A stall of the host
// spoils the stretches it falls in, not the figure. Fewer samples than one
// stretch make one stretch of the whole sample.
func chunkedTail(lats []float64, want float64) (tail float64, stretches, chunk int) {
	chunk = min(int(math.Round(10/(1-want/100))), max(len(lats), 1))
	var tails []float64
	for i := 0; i+chunk <= len(lats); i += chunk {
		tails = append(tails, quantile(lats[i:i+chunk], want/100))
	}
	return median(tails), len(tails), chunk
}
