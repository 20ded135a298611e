// Package stats provides the small numeric helpers the experiment harness
// uses: absolute percentage errors (the paper's accuracy metric), means
// and maxima.
package stats

import "math"

// AbsPctError returns |predicted − actual| / actual × 100, the prediction
// error metric used throughout the paper's evaluation.
func AbsPctError(predicted, actual float64) float64 {
	if actual == 0 {
		return math.Inf(1)
	}
	return math.Abs(predicted-actual) / math.Abs(actual) * 100
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
