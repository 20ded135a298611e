package core

import (
	"math"
	"testing"
	"testing/quick"

	"gpuscale/internal/regress"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCorrectionFactor(t *testing.T) {
	// Perfect linear scaling: C = 1.
	if c := CorrectionFactor(8, 100, 16, 200); !approx(c, 1, 1e-12) {
		t.Errorf("linear C = %v, want 1", c)
	}
	// Sub-linear: 1.8x for 2x size -> C = 0.9.
	if c := CorrectionFactor(8, 100, 16, 180); !approx(c, 0.9, 1e-12) {
		t.Errorf("sub-linear C = %v, want 0.9", c)
	}
	// Super-linear: 2.2x for 2x size -> C = 1.1.
	if c := CorrectionFactor(8, 100, 16, 220); !approx(c, 1.1, 1e-12) {
		t.Errorf("super-linear C = %v, want 1.1", c)
	}
}

func TestDetectCliff(t *testing.T) {
	if _, ok := DetectCliff([]float64{8, 7, 6.5, 6}, 0, 0); ok {
		t.Error("gradual curve produced a cliff")
	}
	i, ok := DetectCliff([]float64{8, 7.5, 7, 0.5, 0.4}, 0, 0)
	if !ok || i != 2 {
		t.Errorf("cliff = %d,%v, want 2,true", i, ok)
	}
	// Flat near-zero curve: drops below the MPKI floor don't count.
	if _, ok := DetectCliff([]float64{0.2, 0.05, 0.01}, 0, 0); ok {
		t.Error("noise cliff detected below MPKI floor")
	}
	// Custom ratio.
	if _, ok := DetectCliff([]float64{8, 5}, 1.5, 0); !ok {
		t.Error("custom ratio 1.5 should flag 8→5")
	}
	if _, ok := DetectCliff(nil, 0, 0); ok {
		t.Error("empty curve produced a cliff")
	}
}

func TestStringers(t *testing.T) {
	if StrongScaling.String() != "strong" || WeakScaling.String() != "weak" {
		t.Error("ScalingMode strings wrong")
	}
	if ScalingMode(9).String() != "ScalingMode(9)" {
		t.Error("unknown mode string wrong")
	}
	if PreCliff.String() != "pre-cliff" || Cliff.String() != "cliff" || PostCliff.String() != "post-cliff" {
		t.Error("Region strings wrong")
	}
	if Region(9).String() != "Region(9)" {
		t.Error("unknown region string wrong")
	}
}

func TestValidate(t *testing.T) {
	good := Input{
		Sizes: []float64{8, 16, 32}, SmallIPC: 100, LargeIPC: 190,
		MPKI: []float64{5, 5, 5}, Mode: StrongScaling,
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Input)
	}{
		{"too few sizes", func(in *Input) { in.Sizes = []float64{8} }},
		{"non-positive size", func(in *Input) { in.Sizes = []float64{0, 16, 32} }},
		{"non-increasing", func(in *Input) { in.Sizes = []float64{16, 16, 32} }},
		{"zero small IPC", func(in *Input) { in.SmallIPC = 0 }},
		{"zero large IPC", func(in *Input) { in.LargeIPC = 0 }},
		{"MPKI length", func(in *Input) { in.MPKI = []float64{1} }},
		{"negative MPKI", func(in *Input) { in.MPKI = []float64{5, -1, 5} }},
		{"NaN MPKI", func(in *Input) { in.MPKI = []float64{5, math.NaN(), 5} }},
		{"bad fmem", func(in *Input) { in.FMemLarge = 1.5 }},
	}
	for _, tc := range cases {
		in := good
		tc.mut(&in)
		if err := in.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Weak scaling does not need MPKI.
	weak := good
	weak.MPKI = nil
	weak.Mode = WeakScaling
	if err := weak.Validate(); err != nil {
		t.Errorf("weak scaling without MPKI rejected: %v", err)
	}
}

func TestPredictLinearWorkload(t *testing.T) {
	// Linear scaling, flat miss curve: predictions are proportional.
	in := Input{
		Sizes:    []float64{8, 16, 32, 64, 128},
		SmallIPC: 100, LargeIPC: 200,
		MPKI: []float64{4, 4, 4, 4, 4},
		Mode: StrongScaling,
	}
	preds, err := Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{400, 800, 1600}
	for i, p := range preds {
		if !approx(p.IPC, want[i], 1e-9) {
			t.Errorf("size %v: IPC = %v, want %v", p.Size, p.IPC, want[i])
		}
		if p.Region != PreCliff {
			t.Errorf("size %v: region = %v, want pre-cliff", p.Size, p.Region)
		}
	}
}

func TestPredictSubLinearCompounds(t *testing.T) {
	// 1.8x per doubling (C = 0.9) and a gradual miss curve: each doubling
	// multiplies by 1.8.
	in := Input{
		Sizes:    []float64{8, 16, 32, 64, 128},
		SmallIPC: 100, LargeIPC: 180,
		MPKI: []float64{8, 7, 6, 5.2, 4.6},
		Mode: StrongScaling,
	}
	preds, err := Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{180 * 1.8, 180 * 1.8 * 1.8, 180 * 1.8 * 1.8 * 1.8}
	for i, p := range preds {
		if !approx(p.IPC, want[i], 1e-6) {
			t.Errorf("size %v: IPC = %v, want %v", p.Size, p.IPC, want[i])
		}
	}
}

func TestPredictCliffUsesFMem(t *testing.T) {
	// Cliff between 64 and 128 (like the paper's dct): Eq. 3 at 128.
	in := Input{
		Sizes:    []float64{8, 16, 32, 64, 128},
		SmallIPC: 100, LargeIPC: 198, // 1.98x, C = 0.99
		MPKI:      []float64{8, 8, 8, 7.5, 0.3},
		FMemLarge: 0.75,
		Mode:      StrongScaling,
	}
	preds, err := Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	// 32, 64 pre-cliff; 128 is the cliff.
	if preds[0].Region != PreCliff || preds[1].Region != PreCliff {
		t.Errorf("regions before cliff: %v, %v", preds[0].Region, preds[1].Region)
	}
	if preds[2].Region != Cliff {
		t.Fatalf("128-SM region = %v, want cliff", preds[2].Region)
	}
	// Eq. 3 with the eliminated-miss weighting: the MPKI drop is
	// 7.5 -> 0.3, so r = 0.96 and the removable stall is 0.75*0.96 = 0.72:
	// 198 * (128/16) / (1-0.72) = 5657.14...
	want := 198.0 * 8 / (1 - 0.75*0.96)
	if !approx(preds[2].IPC, want, 1e-6) {
		t.Errorf("cliff IPC = %v, want %v", preds[2].IPC, want)
	}
}

// TestPredictCliffMeasuredZeroFMem: FMemLarge = 0 is a measurement (the
// large scale model never stalls on memory), so a cliff beyond the scale
// models removes no stall and Eq. 3 predicts IPC_L*T/L.
func TestPredictCliffMeasuredZeroFMem(t *testing.T) {
	in := Input{
		Sizes:    []float64{8, 16, 32, 64, 128},
		SmallIPC: 100, LargeIPC: 198,
		MPKI: []float64{8, 8, 8, 7.5, 0.3},
		Mode: StrongScaling,
	}
	preds, err := Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	if preds[2].Region != Cliff || preds[2].IPC != 198*128/16 {
		t.Errorf("128 SMs: %v IPC %v, want cliff IPC %v", preds[2].Region, preds[2].IPC, 198.0*128/16)
	}
}

func TestPredictPostCliffChains(t *testing.T) {
	// Cliff between 32 and 64; 128 chains from the 64-point (Eq. 4).
	in := Input{
		Sizes:    []float64{8, 16, 32, 64, 128},
		SmallIPC: 100, LargeIPC: 200, // C = 1
		MPKI:      []float64{8, 8, 7.5, 0.3, 0.3},
		FMemLarge: 0.5,
		Mode:      StrongScaling,
	}
	preds, err := Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	if preds[0].Region != PreCliff {
		t.Errorf("32-SM region = %v, want pre-cliff", preds[0].Region)
	}
	if preds[1].Region != Cliff {
		t.Errorf("64-SM region = %v, want cliff", preds[1].Region)
	}
	// Eq. 3 at 64 with r = 1-0.3/7.5 = 0.96:
	// 200 * (64/16) / (1-0.5*0.96) = 1538.46...
	wantCliff := 200.0 * 4 / (1 - 0.5*0.96)
	if !approx(preds[1].IPC, wantCliff, 1e-6) {
		t.Errorf("cliff IPC = %v, want %v", preds[1].IPC, wantCliff)
	}
	if preds[2].Region != PostCliff {
		t.Errorf("128-SM region = %v, want post-cliff", preds[2].Region)
	}
	// Eq. 4: the cliff prediction times (128/64) * C^1.
	if !approx(preds[2].IPC, 2*wantCliff, 1e-6) {
		t.Errorf("post-cliff IPC = %v, want %v", preds[2].IPC, 2*wantCliff)
	}
}

func TestPredictCliffBetweenScaleModels(t *testing.T) {
	// Cliff between 8 and 16: the large scale model already measured the
	// post-cliff world, so no f_mem is needed and scaling continues from
	// the large model.
	in := Input{
		Sizes:    []float64{8, 16, 32},
		SmallIPC: 100, LargeIPC: 500, // big jump across the cliff
		MPKI: []float64{8, 0.3, 0.3},
		Mode: StrongScaling,
	}
	preds, err := Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	if preds[0].Region != PostCliff {
		t.Errorf("region = %v, want post-cliff", preds[0].Region)
	}
	if preds[0].IPC <= 500 {
		t.Errorf("IPC = %v, want growth beyond the large scale model", preds[0].IPC)
	}
}

func TestPredictWeakIgnoresCliff(t *testing.T) {
	in := Input{
		Sizes:    []float64{8, 16, 32, 64, 128},
		SmallIPC: 100, LargeIPC: 190,
		MPKI: []float64{8, 8, 8, 7.5, 0.3}, // would be a cliff under strong
		Mode: WeakScaling,
	}
	preds, err := Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range preds {
		if p.Region != PreCliff {
			t.Errorf("size %v: region = %v, want pre-cliff under weak scaling", p.Size, p.Region)
		}
	}
	// C = 0.95 per doubling.
	want := 190 * 1.9 * 1.9 * 1.9
	if !approx(preds[2].IPC, want, 1e-6) {
		t.Errorf("128-SM IPC = %v, want %v", preds[2].IPC, want)
	}
}

func TestPredictAt(t *testing.T) {
	in := Input{
		Sizes:    []float64{8, 16, 32, 64},
		SmallIPC: 100, LargeIPC: 200,
		MPKI: []float64{4, 4, 4, 4},
		Mode: StrongScaling,
	}
	p, err := PredictAt(in, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p.IPC, 800, 1e-9) {
		t.Errorf("PredictAt(64) = %v, want 800", p.IPC)
	}
	if _, err := PredictAt(in, 256); err == nil {
		t.Error("unknown target accepted")
	}
	if _, err := PredictAt(Input{}, 64); err == nil {
		t.Error("invalid input accepted")
	}
}

func TestPredictMonotoneInTargetSizeProperty(t *testing.T) {
	// Property: with C in a reasonable band and no cliff, predicted IPC
	// grows with system size.
	f := func(ipcRaw uint16, cRaw uint8) bool {
		small := float64(ipcRaw%500) + 50
		c := 0.6 + float64(cRaw%80)/100 // C in [0.6, 1.4)
		large := small * 2 * c
		in := Input{
			Sizes:    []float64{8, 16, 32, 64, 128},
			SmallIPC: small, LargeIPC: large,
			MPKI: []float64{4, 4, 4, 4, 4},
			Mode: StrongScaling,
		}
		preds, err := Predict(in)
		if err != nil {
			return false
		}
		prev := large
		for _, p := range preds {
			if p.IPC <= prev {
				return false
			}
			prev = p.IPC
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredictExactRecoveryProperty(t *testing.T) {
	// Property: if the true law is y = a·x^b (b near 1), the compounding
	// pre-cliff rule recovers it exactly from two points.
	f := func(aRaw, bRaw uint8) bool {
		a := float64(aRaw%50) + 1
		b := 0.7 + float64(bRaw%60)/100 // b in [0.7, 1.3)
		y := func(x float64) float64 { return a * math.Pow(x, b) }
		in := Input{
			Sizes:    []float64{8, 16, 32, 64, 128},
			SmallIPC: y(8), LargeIPC: y(16),
			MPKI: []float64{4, 4, 4, 4, 4},
			Mode: StrongScaling,
		}
		preds, err := Predict(in)
		if err != nil {
			return false
		}
		for _, p := range preds {
			if !approx(p.IPC, y(p.Size), 1e-6*y(p.Size)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPredictTargets pins the prediction step the service, the harness and
// the CLI share: on the inputs of the tests above — no cliff, a compounding
// sub-linear trend, an Eq. 3 cliff, an Eq. 4 post-cliff chain and weak
// scaling — its IPC and Region are Predict's, and its baselines are
// regress.FitAll's fit on the two scale models, evaluated at each target.
func TestPredictTargets(t *testing.T) {
	sizes := []float64{8, 16, 32, 64, 128}
	cases := []struct {
		name string
		in   Input
	}{
		{"linear", Input{Sizes: sizes, SmallIPC: 100, LargeIPC: 200, MPKI: []float64{4, 4, 4, 4, 4}}},
		{"sub-linear", Input{Sizes: sizes, SmallIPC: 100, LargeIPC: 180, MPKI: []float64{8, 7, 6, 5.2, 4.6}}},
		{"cliff", Input{Sizes: sizes, SmallIPC: 100, LargeIPC: 198, MPKI: []float64{8, 8, 8, 7.5, 0.3}, FMemLarge: 0.75}},
		{"post-cliff", Input{Sizes: sizes, SmallIPC: 100, LargeIPC: 200, MPKI: []float64{8, 8, 7.5, 0.3, 0.3}, FMemLarge: 0.5}},
		{"weak", Input{Sizes: sizes, SmallIPC: 100, LargeIPC: 190, Mode: WeakScaling}},
	}
	for _, c := range cases {
		preds, err := Predict(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		targets, err := PredictTargets(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		models, err := regress.FitAll([]regress.Point{{Size: 8, IPC: c.in.SmallIPC}, {Size: 16, IPC: c.in.LargeIPC}})
		if err != nil {
			t.Fatal(err)
		}
		if len(targets) != len(preds) {
			t.Fatalf("%s: %d targets, want %d", c.name, len(targets), len(preds))
		}
		for i, tg := range targets {
			if tg.Prediction != preds[i] {
				t.Errorf("%s: target %d = %+v, want Predict's %+v", c.name, i, tg.Prediction, preds[i])
			}
			if len(tg.Baselines) != len(regress.BaselineNames) {
				t.Errorf("%s: %d baselines at %v, want %d", c.name, len(tg.Baselines), tg.Size, len(regress.BaselineNames))
			}
			for _, name := range regress.BaselineNames {
				if got, want := tg.Baselines[name], models[name].Predict(tg.Size); got != want {
					t.Errorf("%s: %s at %v = %v, want %v", c.name, name, tg.Size, got, want)
				}
			}
		}
	}
	if _, err := PredictTargets(Input{Sizes: sizes[:1]}); err == nil {
		t.Error("PredictTargets accepted an input without both scale models")
	}
}
