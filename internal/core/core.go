// Package core implements the paper's primary contribution: GPU scale-model
// performance prediction. Given measured IPC for two proportionally scaled
// scale models and the workload's LLC miss-rate curve, it predicts IPC for
// arbitrarily larger target systems without simulating them.
//
// The model (paper Section V-C) divides the miss-rate curve into three
// regions:
//
//   - Pre-cliff: the curve evolves steadily, so performance keeps scaling
//     the way the scale models scaled. The per-workload correction factor
//     C = (IPC_L/IPC_S)/(L/S) (Eq. 1) captures that trend, and each
//     doubling of system size multiplies performance by 2·C — Eq. 2's
//     "performance continues to scale as it did" assumption, applied per
//     doubling so the workload-specific trend compounds.
//
//   - Cliff: the MPKI drops by more than 2x when capacity doubles — the
//     working set now fits in the LLC. Memory stalls vanish, so the
//     prediction divides out the memory-stall fraction measured on the
//     largest scale model: IPC = IPC_L · T/L · 1/(1−f_mem) (Eq. 3).
//
//   - Post-cliff: only cold misses remain and the curve is flat again, so
//     scaling resumes from the first post-cliff point with the same
//     correction factor (Eq. 4).
//
// Under weak scaling the working set grows with the machine, no cliff can
// occur, and only the pre-cliff rule applies.
package core

import (
	"fmt"
	"math"

	"gpuscale/internal/regress"
)

// ScalingMode selects the workload scenario.
type ScalingMode uint8

const (
	// StrongScaling: fixed workload, system size varies. All three
	// miss-curve regions may apply.
	StrongScaling ScalingMode = iota
	// WeakScaling: workload grows with the system. Only the pre-cliff
	// rule applies and no miss-rate curve is needed.
	WeakScaling
)

// String implements fmt.Stringer.
func (m ScalingMode) String() string {
	switch m {
	case StrongScaling:
		return "strong"
	case WeakScaling:
		return "weak"
	default:
		return fmt.Sprintf("ScalingMode(%d)", uint8(m))
	}
}

// Region classifies where on the miss-rate curve a prediction falls.
type Region uint8

const (
	// PreCliff predictions use Eq. 2.
	PreCliff Region = iota
	// Cliff marks the first size past the miss-rate cliff (Eq. 3).
	Cliff
	// PostCliff predictions chain from the cliff point (Eq. 4).
	PostCliff
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case PreCliff:
		return "pre-cliff"
	case Cliff:
		return "cliff"
	case PostCliff:
		return "post-cliff"
	default:
		return fmt.Sprintf("Region(%d)", uint8(r))
	}
}

// DefaultCliffRatio is the miss-rate drop that marks a cliff: the paper
// defines a cliff as the MPKI reducing by more than 2x when cache capacity
// doubles.
const DefaultCliffRatio = 2.0

// DefaultMinCliffMPKI filters noise: a drop only counts as a cliff when the
// pre-drop MPKI is at least this large, so near-zero curves don't produce
// spurious cliffs.
const DefaultMinCliffMPKI = 0.25

// Input bundles everything the predictor needs.
type Input struct {
	// Sizes lists system sizes (SM or chiplet counts), smallest first.
	// Sizes[0] and Sizes[1] are the two scale models; the remaining
	// entries are prediction targets. Sizes need not double, but the
	// paper's workflow uses doubling sizes.
	Sizes []float64
	// SmallIPC and LargeIPC are the measured IPCs of the two scale
	// models (Sizes[0] and Sizes[1]).
	SmallIPC, LargeIPC float64
	// MPKI is the miss-rate curve sampled at the LLC capacity that
	// corresponds to each entry of Sizes (shared resources scale
	// proportionally, so size identifies capacity). Required for strong
	// scaling; ignored for weak scaling.
	MPKI []float64
	// FMemLarge is the memory-stall fraction measured on the largest
	// scale model, in [0, 1). Only a cliff beyond the scale models reads
	// it, and 0 is a measurement like any other: that cliff then predicts
	// linear scaling from the large scale model.
	FMemLarge float64
	// Mode selects strong or weak scaling.
	Mode ScalingMode
	// CliffRatio overrides DefaultCliffRatio when > 0.
	CliffRatio float64
	// MinCliffMPKI overrides DefaultMinCliffMPKI when > 0.
	MinCliffMPKI float64
}

// Prediction is the model output for one target size.
type Prediction struct {
	Size   float64
	IPC    float64
	Region Region
}

// CorrectionFactor returns C_sm,L/S (Eq. 1): the deviation of the measured
// scale-model scaling from ideal proportional scaling. C > 1 indicates
// super-linear scaling between the scale models, C < 1 sub-linear.
func CorrectionFactor(smallSize, smallIPC, largeSize, largeIPC float64) float64 {
	return (largeIPC / smallIPC) / (largeSize / smallSize)
}

// scale applies the compounding pre-cliff rule (Eq. 2) with correction
// factor c from a base point, size b with IPC y, to size t:
// IPC(t) = y · (t/b) · c^log2(t/b). Eq. 4 applies it from the cliff point.
func scale(c, b, y, t float64) float64 {
	r := t / b
	return y * r * math.Pow(c, math.Log2(r))
}

// DetectCliff scans a miss-rate curve for the first transition where MPKI
// drops by more than ratio when moving to the next (larger) capacity, with
// the pre-drop MPKI at least minMPKI. It returns the index i of the
// transition (the cliff lies between samples i and i+1) and whether one was
// found.
func DetectCliff(mpki []float64, ratio, minMPKI float64) (int, bool) {
	if ratio <= 0 {
		ratio = DefaultCliffRatio
	}
	if minMPKI <= 0 {
		minMPKI = DefaultMinCliffMPKI
	}
	for i := 0; i+1 < len(mpki); i++ {
		if mpki[i] >= minMPKI && mpki[i+1]*ratio < mpki[i] {
			return i, true
		}
	}
	return 0, false
}

// Validate reports the first problem with the input.
func (in Input) Validate() error {
	if len(in.Sizes) < 2 {
		return fmt.Errorf("core: need at least the two scale-model sizes, got %d", len(in.Sizes))
	}
	for i, s := range in.Sizes {
		if s <= 0 {
			return fmt.Errorf("core: size %d is non-positive (%v)", i, s)
		}
		if i > 0 && s <= in.Sizes[i-1] {
			return fmt.Errorf("core: sizes must be strictly increasing at index %d", i)
		}
	}
	if in.SmallIPC <= 0 || in.LargeIPC <= 0 {
		return fmt.Errorf("core: scale-model IPCs must be positive (got %v, %v)", in.SmallIPC, in.LargeIPC)
	}
	if in.Mode == StrongScaling {
		if len(in.MPKI) != len(in.Sizes) {
			return fmt.Errorf("core: strong scaling needs one MPKI per size: %d sizes, %d MPKI",
				len(in.Sizes), len(in.MPKI))
		}
		for i, m := range in.MPKI {
			if m < 0 || math.IsNaN(m) {
				return fmt.Errorf("core: MPKI %d is invalid (%v)", i, m)
			}
		}
	}
	if in.FMemLarge < 0 || in.FMemLarge >= 1 {
		return fmt.Errorf("core: FMemLarge must be in [0, 1), got %v", in.FMemLarge)
	}
	return nil
}

// Predict runs the scale-model prediction for every target size
// (Sizes[2:]). For strong scaling it classifies each target against the
// miss-rate curve and applies the pre-cliff, cliff, or post-cliff rule; for
// weak scaling it applies the pre-cliff rule throughout.
//
// A cliff beyond the scale models reads FMemLarge, the measured stall
// fraction (the paper's tool prompts for it in exactly this case).
func Predict(in Input) ([]Prediction, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	S, L := in.Sizes[0], in.Sizes[1]
	c := CorrectionFactor(S, in.SmallIPC, L, in.LargeIPC)

	cliffIdx := -1
	if in.Mode == StrongScaling {
		if i, ok := DetectCliff(in.MPKI, in.CliffRatio, in.MinCliffMPKI); ok {
			cliffIdx = i
		}
	}

	out := make([]Prediction, 0, len(in.Sizes)-2)
	// State for post-cliff chaining.
	cliffBaseSize, cliffBaseIPC := 0.0, 0.0
	for k := 2; k < len(in.Sizes); k++ {
		t := in.Sizes[k]
		var p Prediction
		p.Size = t
		switch {
		case cliffIdx < 0 || k <= cliffIdx:
			// No cliff, or target still before the drop: Eq. 2.
			p.Region = PreCliff
			p.IPC = scale(c, L, in.LargeIPC, t)
		case k == cliffIdx+1:
			// First size past the cliff: Eq. 3.
			p.Region = Cliff
			if cliffIdx >= 1 {
				// Cliff beyond the large scale model: Eq. 3 on
				// the measured memory-stall fraction. Only the
				// stall caused by misses that the cliff eliminates
				// disappears; the cold misses that remain
				// (post-cliff MPKI over pre-cliff MPKI) keep
				// stalling. This weights Eq. 3 the way the paper's
				// discussion of per-cliff stall components
				// suggests; when the drop is total it reduces to
				// the paper's literal Eq. 3.
				r := 1.0
				if in.MPKI[cliffIdx] > 0 {
					r = 1 - in.MPKI[cliffIdx+1]/in.MPKI[cliffIdx]
				}
				p.IPC = in.LargeIPC * (t / L) / (1 - in.FMemLarge*r)
			} else {
				// Cliff between the scale models themselves:
				// the large scale model already sits past the
				// cliff, so its measurement absorbs the jump.
				p.Region = PostCliff
				p.IPC = scale(c, L, in.LargeIPC, t)
			}
			cliffBaseSize, cliffBaseIPC = t, p.IPC
		default:
			// Beyond the cliff: Eq. 4 chains from the first
			// post-cliff point with the same correction factor.
			p.Region = PostCliff
			if cliffBaseSize == 0 {
				// Cliff was at or below the large scale model.
				p.IPC = scale(c, L, in.LargeIPC, t)
			} else {
				p.IPC = scale(c, cliffBaseSize, cliffBaseIPC, t)
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// Target is the prediction for one target size beside the baseline
// extrapolations the paper compares it against.
type Target struct {
	Prediction
	// Baselines maps each baseline method (regress.BaselineNames) to its
	// IPC at Size, fit on the same two scale models.
	Baselines map[string]float64
}

// PredictTargets is the paper's whole prediction step: Predict for every
// target size, plus every regress.FitAll baseline fit on the two scale
// models (Sizes[0] and Sizes[1]) and evaluated at each target.
func PredictTargets(in Input) ([]Target, error) {
	preds, err := Predict(in)
	if err != nil {
		return nil, err
	}
	models, err := regress.FitAll([]regress.Point{
		{Size: in.Sizes[0], IPC: in.SmallIPC},
		{Size: in.Sizes[1], IPC: in.LargeIPC},
	})
	if err != nil {
		return nil, err
	}
	out := make([]Target, len(preds))
	for i, p := range preds {
		bl := make(map[string]float64, len(models))
		for name, m := range models {
			bl[name] = m.Predict(p.Size)
		}
		out[i] = Target{Prediction: p, Baselines: bl}
	}
	return out, nil
}

// PredictAt returns the prediction for one specific target size, which must
// be among Sizes[2:].
func PredictAt(in Input, target float64) (Prediction, error) {
	preds, err := Predict(in)
	if err != nil {
		return Prediction{}, err
	}
	for _, p := range preds {
		if p.Size == target {
			return p, nil
		}
	}
	return Prediction{}, fmt.Errorf("core: target size %v not in input sizes", target)
}
