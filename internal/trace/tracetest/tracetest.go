// Package tracetest holds the random program and machine generators that the
// randomized oracle tests share: the miss-rate-curve sweep against its
// reference replay (internal/mrc) and the simulator's run loops against each
// other (the root package's differential test). Everything here is a pure
// function of its arguments, so a failing draw reproduces from its seed.
package tracetest

import (
	"fmt"
	"math/rand"

	"gpuscale/internal/config"
	"gpuscale/internal/trace"
)

// RandomPhases draws a phase list that visits every corner of PhaseProgram:
// pure-compute phases (nil generator), skipped phases (N <= 0), phases that
// end inside a group, stores and BypassL1 accesses. It is a pure function of
// seed, as Workload.NewProgram requires.
func RandomPhases(seed int64) []trace.Phase {
	rng := rand.New(rand.NewSource(seed))
	phases := make([]trace.Phase, rng.Intn(6))
	for i := range phases {
		ph := trace.Phase{N: rng.Intn(40) - 3, ComputePer: rng.Intn(5)}
		switch rng.Intn(4) {
		case 0: // pure compute
		case 1:
			ph.Gen = trace.NewRandGen(uint64(rng.Intn(4))<<14, 128, 1<<14, uint64(seed)+uint64(i))
		default:
			ph.Gen = &trace.SeqGen{Base: uint64(rng.Intn(4)) << 14, Start: uint64(rng.Intn(64)) * 128, Stride: 128, Extent: 1 << uint(10+rng.Intn(6))}
		}
		ph.Store = rng.Intn(4) == 0
		if rng.Intn(3) == 0 {
			ph.Flags = trace.BypassL1
		}
		phases[i] = ph
	}
	return phases
}

// RandomWorkload is a kernel of the given geometry whose every warp runs its
// own RandomPhases program, seeded by (seed, cta, warp).
func RandomWorkload(name string, spec trace.KernelSpec, seed int64) trace.Workload {
	return &trace.FuncWorkload{
		WName: name,
		Spec:  spec,
		Factory: func(cta, warp int) trace.Program {
			return trace.NewPhaseProgram(RandomPhases(seed<<20 + int64(cta)<<8 + int64(warp))...)
		},
	}
}

// SmallConfig is a valid system small enough for a few hundred accesses to
// evict from both cache levels. Callers pass slice counts that are not
// powers of two as well, which the standard configurations never do.
func SmallConfig(sms, slices int, llcBytes int64) config.SystemConfig {
	c := config.Baseline128()
	c.Name = fmt.Sprintf("small-%dsm-%dB", sms, llcBytes)
	c.NumSMs = sms
	c.L1SizeBytes = 512
	c.L1Ways = 2
	c.LLCSlices = slices
	c.LLCWays = 4
	c.LLCSizeBytes = llcBytes
	return c
}
