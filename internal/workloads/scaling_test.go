package workloads_test

import (
	"context"
	"testing"

	"gpuscale"
	"gpuscale/internal/config"
	"gpuscale/internal/core"
	"gpuscale/internal/mrc"
	"gpuscale/internal/workloads"
)

// TestScalingClassesEmerge verifies the suite's central property: every
// benchmark exhibits its Table II scaling class on this simulator. The
// class is judged from per-SM efficiency at 128 vs 8 SMs:
//
//	super-linear: per-SM efficiency improves by >8% (the LLC cliff),
//	linear:       stays above 0.80 without a cliff-sized gain,
//	sub-linear:   falls below 0.88.
//
// The linear and sub-linear bands overlap slightly (0.80–0.88) because the
// mildest sub-linear benchmarks and drain-affected linear benchmarks meet
// there; each benchmark is asserted against its own class band.
//
// It simulates each benchmark at both extremes (~2 minutes), so it is
// skipped under -short.
func TestScalingClassesEmerge(t *testing.T) {
	if testing.Short() {
		t.Skip("full scaling-class verification simulates every benchmark")
	}
	base := config.Baseline128()
	c8 := config.MustScale(base, 8)
	c128 := config.MustScale(base, 128)
	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			s8, err := gpuscale.SimulateContext(context.Background(), c8, b.Workload)
			if err != nil {
				t.Fatal(err)
			}
			s128, err := gpuscale.SimulateContext(context.Background(), c128, b.Workload)
			if err != nil {
				t.Fatal(err)
			}
			ratio := (s128.IPC / 128) / (s8.IPC / 8)
			switch b.Class {
			case workloads.SuperLinear:
				if ratio < 1.08 {
					t.Errorf("per-SM ratio %.3f; super-linear benchmark should exceed 1.08", ratio)
				}
			case workloads.Linear:
				if ratio < 0.80 || ratio > 1.20 {
					t.Errorf("per-SM ratio %.3f; linear benchmark should stay within [0.80, 1.20]", ratio)
				}
			case workloads.SubLinear:
				if ratio > 0.88 {
					t.Errorf("per-SM ratio %.3f; sub-linear benchmark should fall below 0.88", ratio)
				}
			}
		})
	}
}

// TestCliffPositions verifies that exactly the super-linear benchmarks have
// a miss-rate-curve cliff, and that no sub-linear or linear benchmark
// triggers a false cliff (which would make the predictor forecast a jump
// that never happens).
func TestCliffPositions(t *testing.T) {
	if testing.Short() {
		t.Skip("miss-rate curves replay every benchmark")
	}
	cfgs := config.StandardConfigs()
	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			curve, err := mrc.FunctionalSweep(b.Workload, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			_, hasCliff := core.DetectCliff(curve.MPKIs(), 0, 0)
			if b.Class == workloads.SuperLinear && !hasCliff {
				t.Errorf("super-linear benchmark has no miss-rate cliff: %v", curve.MPKIs())
			}
			if b.Class != workloads.SuperLinear && hasCliff {
				t.Errorf("%s benchmark has a spurious cliff: %v", b.Class, curve.MPKIs())
			}
		})
	}
}

// TestWeakScalingClassesEmerge verifies the Table IV classifications: under
// weak scaling the linear families keep per-SM efficiency within ±20% from
// 8 to 128 SMs while the sub-linear families lose more than 20%.
func TestWeakScalingClassesEmerge(t *testing.T) {
	if testing.Short() {
		t.Skip("weak-scaling verification simulates every family twice")
	}
	base := config.Baseline128()
	for _, f := range workloads.WeakAll() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			s8, err := gpuscale.SimulateContext(context.Background(), config.MustScale(base, 8), f.ForSMs(8))
			if err != nil {
				t.Fatal(err)
			}
			s128, err := gpuscale.SimulateContext(context.Background(), config.MustScale(base, 128), f.ForSMs(128))
			if err != nil {
				t.Fatal(err)
			}
			ratio := (s128.IPC / 128) / (s8.IPC / 8)
			switch f.Class {
			case workloads.Linear:
				if ratio < 0.80 || ratio > 1.20 {
					t.Errorf("per-SM ratio %.3f; weak-linear family should stay within [0.80, 1.20]", ratio)
				}
			case workloads.SubLinear:
				if ratio > 0.88 {
					t.Errorf("per-SM ratio %.3f; weak-sub-linear family should fall below 0.88", ratio)
				}
			}
		})
	}
}
