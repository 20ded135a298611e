package trace

import "fmt"

// AddrGen produces a deterministic sequence of byte addresses for the memory
// instructions of one warp. Generators are stateful and single-use, like
// Programs.
type AddrGen interface {
	Next() uint64
}

// SeqGen walks addresses Base + ((Start + i*Stride) mod Extent) for
// i = 0, 1, 2, …. With Extent larger than the data ever touched it models
// pure streaming; with a small Extent the walk wraps, producing cyclic reuse
// over a working set of Extent bytes — the access pattern that creates
// miss-rate-curve cliffs when the working set fits in the LLC.
type SeqGen struct {
	Base   uint64
	Start  uint64
	Stride uint64
	Extent uint64
	i      uint64
}

// Next implements AddrGen.
func (g *SeqGen) Next() uint64 {
	a := g.Base + (g.Start+g.i*g.Stride)%g.Extent
	g.i++
	return a
}

// RandGen produces uniformly random line-granular addresses in
// [Base, Base+Extent), quantised to Stride bytes, from a seeded xorshift64
// stream. It models irregular access patterns (graph traversals, hash
// lookups) whose reuse is footprint-dependent but unordered.
type RandGen struct {
	Base   uint64
	Stride uint64
	Extent uint64
	rng    XorShift
}

// NewRandGen returns a RandGen seeded deterministically.
func NewRandGen(base, stride, extent uint64, seed uint64) *RandGen {
	return &RandGen{Base: base, Stride: stride, Extent: extent, rng: NewXorShift(seed)}
}

// Next implements AddrGen.
func (g *RandGen) Next() uint64 {
	n := g.Extent / g.Stride
	if n == 0 {
		return g.Base
	}
	return g.Base + (g.rng.Next()%n)*g.Stride
}

// InterleaveGen alternates between two generators with the given period:
// out of every (A+B) addresses, the first A come from GenA and the next B
// from GenB. It composes patterns such as "stream over private data but hit
// a small shared region every few accesses" (the camping pattern).
type InterleaveGen struct {
	GenA, GenB AddrGen
	A, B       int
	i          int
}

// Next implements AddrGen.
func (g *InterleaveGen) Next() uint64 {
	period := g.A + g.B
	pos := g.i % period
	g.i++
	if pos < g.A {
		return g.GenA.Next()
	}
	return g.GenB.Next()
}

// Phase is one segment of a warp's execution: N total instructions emitted
// as repeating groups of ComputePer compute instructions followed by one
// memory instruction drawn from Gen. A nil Gen yields pure compute. Store
// marks the memory instructions as stores instead of loads.
type Phase struct {
	N          int
	ComputePer int
	Gen        AddrGen
	Store      bool
	Flags      Flags
}

// PhaseProgram executes a sequence of Phases. It implements Program.
//
// The active phase's parameters are cached in flat fields so the per-warp
// hot path (Next runs once per issued instruction across every live warp)
// avoids the phase-slice bounds check, pointer chase and the modulo of the
// naive one-loop form; the slice is consulted only at phase boundaries.
// Every cached field works from its zero value because the Arena recycles
// shells with `*p = PhaseProgram{phases: phases}`.
type PhaseProgram struct {
	phases []Phase
	pi     int // next phase to load from phases

	// Cached state of the active phase; rem == 0 forces a (re)load.
	rem        int // instructions left in the active phase
	computePer int
	k          int // compute instructions emitted in the current group
	gen        AddrGen
	memInstr   Instr // prototype memory instruction; Addr filled per emit
}

// NewPhaseProgram returns a Program over the given phases. Phases with
// non-positive N are skipped.
func NewPhaseProgram(phases ...Phase) *PhaseProgram {
	return &PhaseProgram{phases: phases}
}

// advance loads the next non-empty phase into the cached fields, reporting
// false when the program is exhausted.
func (p *PhaseProgram) advance() bool {
	for p.pi < len(p.phases) {
		ph := &p.phases[p.pi]
		p.pi++
		if ph.N <= 0 {
			continue
		}
		p.rem = ph.N
		p.computePer = ph.ComputePer
		p.k = 0
		p.gen = ph.Gen
		kind := Load
		if ph.Store {
			kind = Store
		}
		p.memInstr = Instr{Kind: kind, Flags: ph.Flags}
		return true
	}
	return false
}

// Next implements Program: each phase emits repeating groups of computePer
// compute instructions followed by one memory instruction (none when the
// phase has no generator), exactly as the phase-scanning form did.
func (p *PhaseProgram) Next() (Instr, bool) {
	for p.rem == 0 {
		if !p.advance() {
			return Instr{}, false
		}
	}
	p.rem--
	if p.gen == nil {
		return Instr{Kind: Compute}, true
	}
	if p.k < p.computePer {
		p.k++
		return Instr{Kind: Compute}, true
	}
	p.k = 0
	in := p.memInstr
	in.Addr = p.gen.Next()
	return in, true
}

// NextMem advances to the next memory instruction without visiting the
// compute instructions in front of it: one step per memory instruction or
// phase boundary, where Next takes one per instruction. n is the number of
// instructions consumed, the returned one included. ok is false when the
// program ended first; n then counts the trailing compute instructions.
// Interleaving NextMem with Next is allowed — both leave the same state.
func (p *PhaseProgram) NextMem() (in Instr, n int, ok bool) {
	for {
		for p.rem == 0 {
			if !p.advance() {
				return Instr{}, n, false
			}
		}
		if p.gen != nil {
			skip := p.computePer - p.k
			if skip < 0 {
				skip = 0
			}
			if skip < p.rem {
				p.rem -= skip + 1
				p.k = 0
				in = p.memInstr
				in.Addr = p.gen.Next()
				return in, n + skip + 1, true
			}
		}
		// A pure-compute phase, or one that ends inside its last group.
		n += p.rem
		p.rem = 0
	}
}

// NextMem is PhaseProgram.NextMem for any Program: the O(1) skip when p is
// a *PhaseProgram, a Next loop over the compute instructions otherwise.
func NextMem(p Program) (in Instr, n int, ok bool) {
	if pp, isPhase := p.(*PhaseProgram); isPhase {
		return pp.NextMem()
	}
	for {
		in, ok = p.Next()
		if !ok {
			return Instr{}, n, false
		}
		n++
		if in.Kind == Load || in.Kind == Store {
			return in, n, true
		}
	}
}

// XorShift is a tiny deterministic PRNG (xorshift64*). The zero value is not
// valid; use NewXorShift.
type XorShift struct{ s uint64 }

// NewXorShift seeds the generator; a zero seed is remapped to a fixed
// non-zero constant because xorshift has an all-zeros fixed point.
func NewXorShift(seed uint64) XorShift {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return XorShift{s: seed}
}

// Next returns the next pseudo-random value.
func (x *XorShift) Next() uint64 {
	s := x.s
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	x.s = s
	return s * 0x2545f4914f6cdd1d
}

// Float64 returns a pseudo-random value in [0, 1).
func (x *XorShift) Float64() float64 {
	return float64(x.Next()>>11) / float64(1<<53)
}

// WarpSeed derives a deterministic seed for (workload, cta, warp) using a
// split-mix style hash so that distinct warps get decorrelated streams.
func WarpSeed(base uint64, cta, warp int) uint64 {
	z := base + uint64(cta)*0x9e3779b97f4a7c15 + uint64(warp)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// FuncWorkload adapts plain functions into a Workload; useful in tests. Set
// Factory for a plain workload, or FactoryIn for one that can draw its
// programs from an Arena (FactoryIn with a nil arena must heap-allocate,
// which the Arena methods' nil-safety gives for free). With FactoryIn set,
// FuncWorkload implements ArenaWorkload.
type FuncWorkload struct {
	WName     string
	Spec      KernelSpec
	Factory   func(cta, warp int) Program
	FactoryIn func(a *Arena, cta, warp int) Program
}

// Name implements Workload.
func (f *FuncWorkload) Name() string { return f.WName }

// Kernel implements Workload.
func (f *FuncWorkload) Kernel() KernelSpec { return f.Spec }

// NewProgram implements Workload.
func (f *FuncWorkload) NewProgram(cta, warp int) Program {
	return f.NewProgramIn(nil, cta, warp)
}

// NewProgramIn implements ArenaWorkload: it builds the program from the
// arena when FactoryIn is set, and ignores the arena otherwise.
func (f *FuncWorkload) NewProgramIn(a *Arena, cta, warp int) Program {
	if f.FactoryIn != nil {
		return f.FactoryIn(a, cta, warp)
	}
	if f.Factory == nil {
		panic(fmt.Sprintf("trace: FuncWorkload %q has no Factory", f.WName))
	}
	return f.Factory(cta, warp)
}
