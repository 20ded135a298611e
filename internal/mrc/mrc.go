// Package mrc computes last-level-cache miss-rate curves: LLC misses per
// thousand instructions (MPKI) as a function of LLC capacity, the second
// input of the paper's scale-model prediction workflow (Figure 3). Two
// methods are provided:
//
//   - FunctionalSweep replays the workload through the same L1/LLC cache
//     structures the timing simulator uses — but with no timing — once per
//     system configuration. This is the "functional simulation" box of the
//     paper's Figure 3. It is cheaper than timing simulation by a small
//     factor, not by orders of magnitude: a replay still makes every cache
//     lookup the timing run makes, five configurations' worth per curve,
//     and the lookups are most of its time. Measured on the two-core CI
//     host, one whole curve (five replays, up to 128 SMs) against the
//     timing simulation of the 128-SM target alone: ht 143 vs 215 ms,
//     dct 612 vs 750 ms, bfs 1186 vs 735 ms (0.7x, 0.8x, 1.6x of a
//     simulation) when every replay rebuilt and stepped the warp programs
//     one after another; 25, 224 and 361 ms (0.1x, 0.3x, 0.5x) now that
//     the programs are walked once into a memory trace and the replays
//     run concurrently over it (replay.go;
//     `go test -bench FunctionalSweep ./internal/mrc`).
//
//   - StackDistanceCurve implements the classic Conte-style single-pass
//     reuse-distance algorithm (with a Fenwick tree, O(N log N)) over a
//     warp-interleaved access stream, yielding the fully-associative miss
//     count for every capacity at once, in the lineage of the GPU cache
//     model of Nugteren et al. that the paper builds on.
package mrc

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"gpuscale/internal/config"
	"gpuscale/internal/engine"
	"gpuscale/internal/trace"
)

// Point is one sample of a miss-rate curve.
type Point struct {
	// CapacityBytes is the LLC capacity of this sample.
	CapacityBytes int64
	// MPKI is LLC misses per thousand (warp) instructions.
	MPKI float64
}

// Curve is a miss-rate curve: MPKI as a function of LLC capacity, sorted by
// ascending capacity.
type Curve struct {
	Points []Point
}

// MPKIs returns just the MPKI values, smallest capacity first — the shape
// the prediction model consumes.
func (c Curve) MPKIs() []float64 {
	out := make([]float64, len(c.Points))
	for i, p := range c.Points {
		out[i] = p.MPKI
	}
	return out
}

// MPKIAt returns the MPKI at exactly the given capacity.
func (c Curve) MPKIAt(capacityBytes int64) (float64, error) {
	for _, p := range c.Points {
		if p.CapacityBytes == capacityBytes {
			return p.MPKI, nil
		}
	}
	return 0, fmt.Errorf("mrc: no sample at capacity %d bytes", capacityBytes)
}

// Validate checks that the curve is non-empty and sorted by capacity.
func (c Curve) Validate() error {
	if len(c.Points) == 0 {
		return fmt.Errorf("mrc: empty curve")
	}
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].CapacityBytes <= c.Points[i-1].CapacityBytes {
			return fmt.Errorf("mrc: capacities not strictly increasing at index %d", i)
		}
	}
	return nil
}

// FunctionalSweep replays workload w functionally (caches only, no timing)
// once per configuration and returns the miss-rate curve sampled at each
// configuration's LLC capacity. CTAs are assigned round-robin to SMs and
// warp accesses are interleaved round-robin within and across SMs,
// approximating the thread-level parallelism a timing run would exhibit.
// Configurations must be ordered by ascending LLC capacity.
//
// The workload's programs are walked once, by the calling goroutine, into
// an immutable memory trace; the per-configuration replays read only that
// trace and run concurrently, replaysPerProc of them per processor. Use
// FunctionalSweepParallel to bound them.
func FunctionalSweep(w trace.Workload, cfgs []config.SystemConfig) (Curve, error) {
	return FunctionalSweepParallel(w, cfgs, 0)
}

// FunctionalSweepParallel is FunctionalSweep with an explicit bound on the
// goroutines replaying configurations (<= 0 means the default, which uses
// every processor; 1 replays them one after another in the calling
// goroutine). Each replay is independent and deterministic, so the curve is
// identical at every bound; only wall-clock time changes.
func FunctionalSweepParallel(w trace.Workload, cfgs []config.SystemConfig, workers int) (Curve, error) {
	if w == nil {
		return Curve{}, fmt.Errorf("mrc: nil workload")
	}
	if len(cfgs) == 0 {
		return Curve{}, fmt.Errorf("mrc: no configurations")
	}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return Curve{}, err
		}
	}
	tr, err := extract(w)
	if err != nil {
		return Curve{}, err
	}
	if tr.instrs == 0 {
		return Curve{}, fmt.Errorf("mrc: workload %q produced no instructions", w.Name())
	}
	if workers <= 0 {
		workers = replaysPerProc * runtime.GOMAXPROCS(0)
	}
	misses := make([]uint64, len(cfgs))
	if workers == 1 || len(cfgs) == 1 {
		for i, cfg := range cfgs {
			misses[i] = tr.replay(cfg)
		}
	} else {
		// Largest LLC first: when the ladder is longer than the bound, the
		// configuration with the most SMs and cache metadata is the replay
		// the others should pack around.
		order := make([]int, len(cfgs))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return cfgs[order[a]].LLCSizeBytes > cfgs[order[b]].LLCSizeBytes
		})
		_, err := engine.Map(context.Background(), workers, order,
			func(_ context.Context, _ int, i int) (struct{}, error) {
				misses[i] = tr.replay(cfgs[i])
				return struct{}{}, nil
			})
		if err != nil {
			return Curve{}, err
		}
	}
	var curve Curve
	for i, cfg := range cfgs {
		curve.Points = append(curve.Points, Point{
			CapacityBytes: cfg.LLCSizeBytes,
			MPKI:          float64(misses[i]) / (float64(tr.instrs) / 1000),
		})
	}
	if err := curve.Validate(); err != nil {
		return Curve{}, err
	}
	return curve, nil
}

// InterleavedStream materialises the warp-interleaved memory-access stream
// of w (line-granular addresses) plus the total instruction count. Warps
// across the whole grid take turns round-robin, one access per turn,
// modelling maximal thread-level interleaving. Used by the stack-distance
// method and by tests.
func InterleavedStream(w trace.Workload, lineSize int) (lines []uint64, instrs uint64, err error) {
	return InterleavedStreamN(w, lineSize, 1)
}

// StackDistanceCurve computes the fully-associative LRU miss-rate curve of
// w at the given capacities (in bytes) using the single-pass reuse-distance
// algorithm: one pass over the interleaved stream yields the miss count for
// every capacity simultaneously. Cold misses count at every capacity.
func StackDistanceCurve(w trace.Workload, lineSize int, capacities []int64) (Curve, error) {
	if len(capacities) == 0 {
		return Curve{}, fmt.Errorf("mrc: no capacities")
	}
	lines, instrs, err := InterleavedStream(w, lineSize)
	if err != nil {
		return Curve{}, err
	}
	if instrs == 0 {
		return Curve{}, fmt.Errorf("mrc: workload %q produced no instructions", w.Name())
	}
	hist, cold := Distances(lines)
	caps := append([]int64(nil), capacities...)
	sort.Slice(caps, func(i, j int) bool { return caps[i] < caps[j] })
	var curve Curve
	for _, c := range caps {
		capLines := int(c / int64(lineSize))
		misses := cold
		for d := capLines; d < len(hist); d++ {
			misses += hist[d]
		}
		curve.Points = append(curve.Points, Point{
			CapacityBytes: c,
			MPKI:          float64(misses) / (float64(instrs) / 1000),
		})
	}
	if err := curve.Validate(); err != nil {
		return Curve{}, err
	}
	return curve, nil
}

// Distances computes the stack (reuse) distance histogram of a line-address
// stream: hist[d] counts accesses whose distance — the number of distinct
// lines touched since the previous access to the same line — equals d, and
// cold counts first-touch accesses. An access with distance d hits in a
// fully-associative LRU cache of more than d lines.
func Distances(lines []uint64) (hist []uint64, cold uint64) {
	n := len(lines)
	bit := newFenwick(n)
	last := make(map[uint64]int, 1024)
	for i, line := range lines {
		p, seen := last[line]
		if !seen {
			cold++
		} else {
			// Distinct lines since position p = number of
			// last-occurrence markers strictly after p.
			d := bit.sum(i) - bit.sum(p+1)
			for d >= len(hist) {
				hist = append(hist, 0)
			}
			hist[d]++
			bit.add(p, -1)
		}
		bit.add(i, 1)
		last[line] = i
	}
	return hist, cold
}

// fenwick is a Fenwick (binary indexed) tree over positions 0..n-1.
type fenwick struct {
	tree []int32
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int32, n+1)} }

func (f *fenwick) add(i int, v int32) {
	for i++; i < len(f.tree); i += i & -i {
		f.tree[i] += v
	}
}

// sum returns the prefix sum over positions 0..i-1.
func (f *fenwick) sum(i int) int {
	s := int32(0)
	for ; i > 0; i -= i & -i {
		s += f.tree[i]
	}
	return int(s)
}
