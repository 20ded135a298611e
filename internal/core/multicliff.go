package core

import "math"

// DetectCliffs returns every cliff transition in the miss-rate curve, in
// ascending-capacity order. The paper assumes at most one cliff ("without
// loss of generality") but sketches the multi-cliff extension in its
// discussion section: each cliff eliminates its own share of the memory
// stall. DetectCliffs is the enumeration primitive for that extension.
func DetectCliffs(mpki []float64, ratio, minMPKI float64) []int {
	if ratio <= 0 {
		ratio = DefaultCliffRatio
	}
	if minMPKI <= 0 {
		minMPKI = DefaultMinCliffMPKI
	}
	var out []int
	for i := 0; i+1 < len(mpki); i++ {
		if mpki[i] >= minMPKI && mpki[i+1]*ratio < mpki[i] {
			out = append(out, i)
		}
	}
	return out
}

// PredictMultiCliff generalises Predict to miss-rate curves with any number
// of cliffs — the extension the paper leaves as future work (Section V-D).
// Every cliff transition multiplies the prediction by
// 1/(1 − f_mem·r_i), where r_i is the fraction of the *remaining* miss
// traffic that cliff i eliminates, so the stall shares removed by
// successive cliffs compose; between cliffs the pre-cliff compounding rule
// applies. With zero or one cliff it agrees with Predict exactly.
func PredictMultiCliff(in Input) ([]Prediction, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Mode == WeakScaling {
		return Predict(in)
	}
	cliffs := DetectCliffs(in.MPKI, in.CliffRatio, in.MinCliffMPKI)
	if len(cliffs) <= 1 {
		return Predict(in)
	}
	S, L := in.Sizes[0], in.Sizes[1]
	c := CorrectionFactor(S, in.SmallIPC, L, in.LargeIPC)
	extrapolate := func(b, y, t float64) float64 {
		r := t / b
		return y * r * math.Pow(c, math.Log2(r))
	}
	isCliff := make(map[int]bool, len(cliffs))
	for _, i := range cliffs {
		isCliff[i] = true
	}
	// Remaining memory-stall budget: each cliff i removes the share of
	// the original stall proportional to the miss traffic it eliminates
	// relative to the curve's starting level.
	out := make([]Prediction, 0, len(in.Sizes)-2)
	baseSize, baseIPC := L, in.LargeIPC
	stallLeft := in.FMemLarge
	for k := 2; k < len(in.Sizes); k++ {
		t := in.Sizes[k]
		var p Prediction
		p.Size = t
		if isCliff[k-1] && k-1 >= 1 {
			// Crossing a cliff between sizes k-1 and k.
			r := 1.0
			if in.MPKI[k-1] > 0 {
				r = 1 - in.MPKI[k]/in.MPKI[k-1]
			}
			removed := stallLeft * r
			p.Region = Cliff
			p.IPC = baseIPC * (t / baseSize) / (1 - removed)
			stallLeft -= removed
		} else if isCliff[k-1] {
			// Cliff between the scale models: already measured.
			p.Region = PostCliff
			p.IPC = extrapolate(baseSize, baseIPC, t)
		} else {
			p.Region = PreCliff
			if len(out) > 0 && out[len(out)-1].Region != PreCliff {
				p.Region = PostCliff
			}
			p.IPC = extrapolate(baseSize, baseIPC, t)
		}
		baseSize, baseIPC = t, p.IPC
		out = append(out, p)
	}
	return out, nil
}
