package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAbsPctError(t *testing.T) {
	if got := AbsPctError(110, 100); got != 10 {
		t.Errorf("AbsPctError(110,100) = %v, want 10", got)
	}
	if got := AbsPctError(90, 100); got != 10 {
		t.Errorf("AbsPctError(90,100) = %v, want 10", got)
	}
	if got := AbsPctError(100, 100); got != 0 {
		t.Errorf("exact prediction error = %v, want 0", got)
	}
	if got := AbsPctError(5, 0); !math.IsInf(got, 1) {
		t.Errorf("zero actual should be +Inf, got %v", got)
	}
}

func TestMeanMaxMin(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Mean(xs) != 2 {
		t.Errorf("Mean = %v, want 2", Mean(xs))
	}
	if Max(xs) != 3 {
		t.Errorf("Max = %v, want 3", Max(xs))
	}
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Error("empty slices should yield 0")
	}
}

func TestBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		mn := float64(raw[0])
		for i, v := range raw {
			xs[i] = float64(v)
			mn = math.Min(mn, xs[i])
		}
		mean, mx := Mean(xs), Max(xs)
		return mn <= mean+1e-9 && mean <= mx+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
