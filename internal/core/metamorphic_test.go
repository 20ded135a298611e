package core

// Metamorphic properties of Eqs. 1-4 (docs/ARCHITECTURE.md, "Paper equation
// → code map"): relations between predictions that must hold whatever the
// inputs, checked over generated ones.

import (
	"math"
	"testing"
	"testing/quick"
)

// relClose reports a within rel of b, relative to b.
func relClose(a, b, rel float64) bool { return math.Abs(a-b) <= rel*math.Abs(b) }

// TestCorrectionFactorLinearIsOneProperty: under linear scaling (IPC grows
// exactly with size) Eq. 1's C is exactly 1, and Eq. 2 then predicts exact
// proportional scaling at every target. Exact for the power-of-two size
// ratios of the paper's doubling workflow, where scaling a float by the
// ratio rounds nothing.
func TestCorrectionFactorLinearIsOneProperty(t *testing.T) {
	f := func(sRaw uint8, yRaw uint16, kRaw uint8) bool {
		s := float64(sRaw%64) + 1
		y := float64(yRaw)/16 + 0.5
		k := math.Ldexp(1, int(kRaw%4)+1) // 2, 4, 8 or 16
		if CorrectionFactor(s, y, k*s, k*y) != 1 {
			return false
		}
		sizes := []float64{s, 2 * s, 4 * s, 8 * s, 16 * s}
		preds, err := Predict(Input{Sizes: sizes, SmallIPC: y, LargeIPC: 2 * y, Mode: WeakScaling})
		if err != nil {
			return false
		}
		for _, p := range preds {
			if p.IPC != y*(p.Size/s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEq2AtLargeScaleModelProperty: Eq. 2 evaluated at T = L returns IPC_L
// exactly, whatever C. Predict cannot be asked for T = L (Validate wants
// strictly increasing sizes), so this holds Eq. 2's rule itself, the one
// every pre- and post-cliff prediction goes through.
func TestEq2AtLargeScaleModelProperty(t *testing.T) {
	f := func(cRaw, lRaw, yRaw uint16) bool {
		c := 0.25 + float64(cRaw)/16384 // C in [0.25, 4.25)
		l := float64(lRaw%1024) + 1
		y := float64(yRaw)/64 + 0.01
		return scale(c, l, y, l) == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPredictComposesProperty: predicting 4L from the scale models equals
// predicting 2L and then doubling — by Eq. 2's factor 2·C, and by feeding
// the 2L prediction back as the large scale model of a new pair (L, 2L),
// whose correction factor is C again.
func TestPredictComposesProperty(t *testing.T) {
	f := func(sRaw uint8, yRaw uint16, cRaw uint8, strong bool) bool {
		s := float64(sRaw%32) + 1
		y := float64(yRaw)/16 + 0.5
		c := 0.5 + float64(cRaw)/256 // C in [0.5, 1.5)
		in := Input{Sizes: []float64{s, 2 * s, 4 * s, 8 * s}, SmallIPC: y, LargeIPC: 2 * c * y, Mode: WeakScaling}
		if strong {
			in.Mode, in.MPKI = StrongScaling, []float64{4, 3.9, 3.8, 3.7} // no cliff
		}
		preds, err := Predict(in)
		if err != nil {
			return false
		}
		at2L, at4L := preds[0].IPC, preds[1].IPC
		cf := CorrectionFactor(in.Sizes[0], in.SmallIPC, in.Sizes[1], in.LargeIPC)
		if !relClose(at2L*2*cf, at4L, 1e-12) {
			return false
		}
		again := in
		again.Sizes, again.SmallIPC, again.LargeIPC = in.Sizes[1:], in.LargeIPC, at2L
		if strong {
			again.MPKI = in.MPKI[1:]
		}
		re, err := Predict(again)
		return err == nil && relClose(re[0].IPC, at4L, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEq3FMemProperty: the cliff prediction (Eq. 3) reduces to linear
// scaling from the large scale model, IPC_L·T/L, as f_mem goes to 0,
// increases strictly with f_mem, and on a total MPKI drop is the paper's
// literal IPC_L·T/L/(1−f_mem). A measured f_mem of exactly 0 predicts
// the linear value itself.
func TestEq3FMemProperty(t *testing.T) {
	sizes := []float64{8, 16, 32, 64, 128}
	cliff := func(fmem, post, large float64) float64 {
		in := Input{Sizes: sizes, SmallIPC: 100, LargeIPC: large, MPKI: []float64{8, 8, 8, post, post}, FMemLarge: fmem}
		preds, err := Predict(in)
		if err != nil {
			t.Fatalf("Predict(%+v): %v", in, err)
		}
		if preds[1].Region != Cliff {
			t.Fatalf("64 SMs predicted in region %v, want cliff", preds[1].Region)
		}
		return preds[1].IPC
	}
	f := func(f1Raw, f2Raw, postRaw, largeRaw uint16) bool {
		f1 := float64(f1Raw%999+1) / 1000 // (0, 1)
		f2 := float64(f2Raw%999+1) / 1000
		post := float64(postRaw%3999) / 1000 // under 4: a cliff from 8
		large := 150 + float64(largeRaw%100)
		linear := large * 64 / 16
		if !relClose(cliff(1e-12, post, large), linear, 1e-11) {
			return false
		}
		if f1 > f2 {
			f1, f2 = f2, f1
		}
		if f1 < f2 && cliff(f1, post, large) >= cliff(f2, post, large) {
			return false
		}
		return relClose(cliff(f2, 0, large), linear/(1-f2), 1e-15)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if got, want := cliff(0, 1, 190), 190.0*64/16; got != want {
		t.Errorf("f_mem = 0: cliff IPC %v, want IPC_L*T/L = %v", got, want)
	}
}
