// Package workloads defines the benchmark suite of the reproduction: 21
// strong-scaling benchmarks mirroring the paper's Table II and six
// weak-scaling benchmark families mirroring Table IV. Each benchmark is a
// synthetic kernel generator parameterised to reproduce the published
// workload's characteristics — footprint, CTA counts, data reuse, compute
// intensity, shared-data behaviour — so that it exhibits the same scaling
// class (linear, sub-linear, super-linear) on this repo's simulator as the
// original CUDA workload does on Accel-Sim. Dynamic instruction counts are
// scaled down from the paper's (which run to billions) to keep simulations
// laptop-sized; prediction errors are relative, so this preserves every
// conclusion.
package workloads

import (
	"fmt"
	"sort"
	"sync"

	"gpuscale/internal/trace"
)

// ScalingClass is the paper's behavioural classification.
type ScalingClass string

const (
	// Linear performance scaling with system size.
	Linear ScalingClass = "linear"
	// SubLinear scaling: workload-architecture imbalance or shared-data
	// camping erodes the benefit of added SMs.
	SubLinear ScalingClass = "sub-linear"
	// SuperLinear scaling: the working set starts fitting in the LLC as
	// the system (and its proportionally scaled LLC) grows.
	SuperLinear ScalingClass = "super-linear"
)

// Benchmark is one strong-scaling suite entry: the synthetic workload plus
// the metadata the paper's Table II reports.
type Benchmark struct {
	// Name is the benchmark's abbreviation used throughout the paper
	// (dct, bfs, pf, …).
	Name string
	// FullName is the descriptive name, e.g. "Discrete Cosine Transform".
	FullName string
	// Suite is the originating benchmark suite (CUDA SDK, Rodinia, …).
	Suite string
	// PaperFootprintMB is the footprint reported in Table II.
	PaperFootprintMB float64
	// PaperInsnsM is the dynamic instruction count (millions) in Table II.
	PaperInsnsM float64
	// PaperCTASizes is Table II's "CTA Size" column: the CTA counts of
	// the original benchmark's kernels (several entries for multi-kernel
	// benchmarks).
	PaperCTASizes string
	// Class is the paper's scaling classification, which this synthetic
	// workload reproduces (asserted by tests).
	Class ScalingClass
	// Workload is the synthetic kernel grid.
	Workload trace.Workload
}

// regionBase spaces benchmark address spaces far apart so distinct
// benchmarks (and distinct regions within one benchmark) never alias.
const (
	sharedRegion  = uint64(0)
	privateRegion = uint64(1) << 40
	hotRegion     = uint64(1) << 50
)

const lineSize = 128

// spec is the builder for synthetic kernels. The phases callback receives
// the simulation's arena (nil when the caller has none) and must draw its
// phase buffer and generators from it; the Arena API's nil-safety makes the
// no-arena path heap-allocate exactly as before, so every benchmark is
// written once and produces identical instruction streams either way.
type spec struct {
	name     string
	ctas     int
	warps    int // warps per CTA
	ctaLimit int // per-SM CTA residency limit (0 = none)
	phases   func(a *trace.Arena, cta, warp int) []trace.Phase
}

func (s spec) build() trace.Workload {
	return &trace.FuncWorkload{
		WName: s.name,
		Spec: trace.KernelSpec{
			NumCTAs:        s.ctas,
			WarpsPerCTA:    s.warps,
			CTAsPerSMLimit: s.ctaLimit,
		},
		FactoryIn: func(a *trace.Arena, cta, warp int) trace.Program {
			return a.NewProgram(s.phases(a, cta, warp))
		},
	}
}

// sharedWalk returns a SeqGen cycling over a shared working set of ws bytes,
// with each warp starting at a decorrelated offset so the grid covers the
// set cooperatively.
func sharedWalk(a *trace.Arena, seed uint64, cta, warp int, ws uint64) *trace.SeqGen {
	start := trace.WarpSeed(seed, cta, warp) % ws
	start -= start % lineSize
	return a.Seq(sharedRegion, start, lineSize, ws)
}

// evenWalk returns a SeqGen cycling over a shared working set of ws bytes
// with warps starting at one of k evenly spaced offsets. Evenly spaced
// cyclic walkers keep every line's reuse distance close to the full working
// set, which is what produces the sharp thrash-to-resident transition (the
// miss-rate cliff) when the LLC capacity crosses ws.
func evenWalk(a *trace.Arena, warpsPerCTA, cta, warp, k int, ws uint64) *trace.SeqGen {
	id := cta*warpsPerCTA + warp
	step := ws / uint64(k)
	start := (uint64(id%k) * step) / lineSize * lineSize
	return a.Seq(sharedRegion, start, lineSize, ws)
}

// privateStream returns a SeqGen streaming through a private region of
// bytesPerWarp bytes for this warp.
func privateStream(a *trace.Arena, warpsPerCTA, cta, warp int, bytesPerWarp uint64) *trace.SeqGen {
	id := uint64(cta*warpsPerCTA + warp)
	return a.Seq(privateRegion+id*bytesPerWarp, 0, lineSize, bytesPerWarp)
}

// randomWalk returns a RandGen over a shared footprint of fp bytes.
func randomWalk(a *trace.Arena, seed uint64, cta, warp int, fp uint64) *trace.RandGen {
	return a.Rand(sharedRegion, lineSize, fp, trace.WarpSeed(seed, cta, warp))
}

// hotWalk returns a SeqGen cycling over a small shared hot region (hot
// bytes) — the camping pattern. Callers mark its phase BypassL1.
func hotWalk(a *trace.Arena, cta, warp int, hot uint64) *trace.SeqGen {
	start := (uint64(cta+warp) * lineSize) % hot
	return a.Seq(hotRegion, start, lineSize, hot)
}

// suite lists the strong-scaling constructors in the paper's Table II
// order: super-linear first, then sub-linear, then linear.
var suite = []func() Benchmark{
	DCT, FWT, BP, VA, AS, LU, ST,
	BFS, UNet, SR, GR, BTree,
	PF, Res50, Res34, HT, AT, GEMM, TwoMM, LBM, BS,
}

// All returns the 21 strong-scaling benchmarks in the paper's Table II
// order.
func All() []Benchmark {
	out := make([]Benchmark, len(suite))
	for i, ctor := range suite {
		out[i] = ctor()
	}
	return out
}

// byName maps each abbreviation to its constructor. It is built once, on
// the first ByName call, by running every constructor a single time: the
// serving path resolves a benchmark several times per request and must
// not rebuild the whole suite for each lookup.
var byName = sync.OnceValue(func() map[string]func() Benchmark {
	m := make(map[string]func() Benchmark, len(suite))
	for _, ctor := range suite {
		m[ctor().Name] = ctor
	}
	return m
})

// ByName returns a freshly built benchmark with the given abbreviation.
func ByName(name string) (Benchmark, error) {
	if ctor, ok := byName()[name]; ok {
		return ctor(), nil
	}
	return Benchmark{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// Names returns all benchmark abbreviations, sorted.
func Names() []string {
	bs := All()
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	sort.Strings(out)
	return out
}

// ByClass returns all strong-scaling benchmarks of one class, in suite
// order.
func ByClass(c ScalingClass) []Benchmark {
	var out []Benchmark
	for _, b := range All() {
		if b.Class == c {
			out = append(out, b)
		}
	}
	return out
}
