package trace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func collect(p Program) []Instr {
	var out []Instr
	for {
		in, ok := p.Next()
		if !ok {
			return out
		}
		out = append(out, in)
	}
}

func TestKindString(t *testing.T) {
	if Compute.String() != "compute" || Load.String() != "load" || Store.String() != "store" {
		t.Error("Kind.String mismatch")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unknown kind string = %q", Kind(9).String())
	}
}

func TestKernelSpec(t *testing.T) {
	k := KernelSpec{NumCTAs: 4, WarpsPerCTA: 8}
	if k.TotalWarps() != 32 {
		t.Errorf("TotalWarps = %d, want 32", k.TotalWarps())
	}
	if err := k.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if err := (KernelSpec{NumCTAs: 0, WarpsPerCTA: 1}).Validate(); err == nil {
		t.Error("zero CTAs accepted")
	}
	if err := (KernelSpec{NumCTAs: 1, WarpsPerCTA: 0}).Validate(); err == nil {
		t.Error("zero warps accepted")
	}
}

func TestSeqGenStreaming(t *testing.T) {
	g := &SeqGen{Base: 1000, Stride: 128, Extent: 1 << 40}
	for i := 0; i < 10; i++ {
		want := uint64(1000 + 128*i)
		if got := g.Next(); got != want {
			t.Fatalf("access %d = %d, want %d", i, got, want)
		}
	}
}

func TestSeqGenWrapsAtExtent(t *testing.T) {
	g := &SeqGen{Base: 0, Stride: 128, Extent: 512}
	seen := map[uint64]int{}
	for i := 0; i < 12; i++ {
		seen[g.Next()]++
	}
	if len(seen) != 4 {
		t.Fatalf("distinct addresses = %d, want 4 (working set 512/128)", len(seen))
	}
	for a, n := range seen {
		if n != 3 {
			t.Errorf("address %d visited %d times, want 3", a, n)
		}
	}
}

func TestSeqGenStartOffset(t *testing.T) {
	g := &SeqGen{Base: 0, Start: 256, Stride: 128, Extent: 512}
	if got := g.Next(); got != 256 {
		t.Errorf("first = %d, want 256", got)
	}
	g.Next() // 384
	if got := g.Next(); got != 0 {
		t.Errorf("third = %d, want 0 (wrapped)", got)
	}
}

func TestRandGenStaysInRangeAndAligned(t *testing.T) {
	f := func(seed uint64) bool {
		g := NewRandGen(4096, 128, 1<<20, seed)
		for i := 0; i < 200; i++ {
			a := g.Next()
			if a < 4096 || a >= 4096+1<<20 {
				return false
			}
			if (a-4096)%128 != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandGenDeterministic(t *testing.T) {
	a := NewRandGen(0, 128, 1<<20, 42)
	b := NewRandGen(0, 128, 1<<20, 42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRandGenZeroExtent(t *testing.T) {
	g := NewRandGen(77, 128, 0, 1)
	if got := g.Next(); got != 77 {
		t.Errorf("zero-extent RandGen = %d, want Base", got)
	}
}

func TestInterleaveGen(t *testing.T) {
	a := &SeqGen{Base: 0, Stride: 1, Extent: 1 << 30}
	b := &SeqGen{Base: 1 << 40, Stride: 1, Extent: 1 << 30}
	g := &InterleaveGen{GenA: a, GenB: b, A: 2, B: 1}
	want := []uint64{0, 1, 1 << 40, 2, 3, 1<<40 + 1}
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Fatalf("access %d = %d, want %d", i, got, w)
		}
	}
}

func TestPhaseProgramPureCompute(t *testing.T) {
	p := NewPhaseProgram(Phase{N: 5})
	instrs := collect(p)
	if len(instrs) != 5 {
		t.Fatalf("len = %d, want 5", len(instrs))
	}
	for _, in := range instrs {
		if in.Kind != Compute {
			t.Fatalf("got %v, want compute", in.Kind)
		}
	}
}

func TestPhaseProgramComputeMemRatio(t *testing.T) {
	g := &SeqGen{Base: 0, Stride: 128, Extent: 1 << 30}
	p := NewPhaseProgram(Phase{N: 12, ComputePer: 3, Gen: g})
	instrs := collect(p)
	if len(instrs) != 12 {
		t.Fatalf("len = %d, want 12", len(instrs))
	}
	var loads int
	for i, in := range instrs {
		if (i+1)%4 == 0 {
			if in.Kind != Load {
				t.Fatalf("instr %d = %v, want load", i, in.Kind)
			}
			loads++
		} else if in.Kind != Compute {
			t.Fatalf("instr %d = %v, want compute", i, in.Kind)
		}
	}
	if loads != 3 {
		t.Fatalf("loads = %d, want 3", loads)
	}
}

func TestPhaseProgramStore(t *testing.T) {
	g := &SeqGen{Base: 0, Stride: 128, Extent: 1 << 30}
	p := NewPhaseProgram(Phase{N: 2, ComputePer: 0, Gen: g, Store: true})
	instrs := collect(p)
	if len(instrs) != 2 || instrs[0].Kind != Store || instrs[1].Kind != Store {
		t.Fatalf("got %+v, want two stores", instrs)
	}
}

func TestPhaseProgramMultiPhase(t *testing.T) {
	g := &SeqGen{Base: 0, Stride: 128, Extent: 1 << 30}
	p := NewPhaseProgram(
		Phase{N: 3},
		Phase{N: 0, Gen: g}, // empty phase skipped
		Phase{N: 2, ComputePer: 0, Gen: g},
	)
	instrs := collect(p)
	if len(instrs) != 5 {
		t.Fatalf("len = %d, want 5", len(instrs))
	}
	if instrs[3].Kind != Load || instrs[4].Kind != Load {
		t.Fatal("phase 3 should be loads")
	}
}

func TestPhaseProgramExhaustedStaysExhausted(t *testing.T) {
	p := NewPhaseProgram(Phase{N: 1})
	collect(p)
	if _, ok := p.Next(); ok {
		t.Error("Next returned true after exhaustion")
	}
}

// scanningNext is the pre-optimization PhaseProgram.Next, kept verbatim as
// the reference the cached-phase-state fast path is cross-checked against:
// it re-derives phase bounds and group position from the phase slice on
// every call.
type scanningNext struct {
	phases []Phase
	pi     int
	i      int
	k      int
}

func (p *scanningNext) Next() (Instr, bool) {
	for p.pi < len(p.phases) {
		ph := &p.phases[p.pi]
		if p.i >= ph.N {
			p.pi++
			p.i = 0
			p.k = 0
			continue
		}
		p.i++
		if ph.Gen == nil {
			return Instr{Kind: Compute}, true
		}
		group := ph.ComputePer + 1
		pos := p.k
		p.k = (p.k + 1) % group
		if pos < ph.ComputePer {
			return Instr{Kind: Compute}, true
		}
		kind := Load
		if ph.Store {
			kind = Store
		}
		return Instr{Kind: kind, Flags: ph.Flags, Addr: ph.Gen.Next()}, true
	}
	return Instr{}, false
}

// randomPhaseList builds n phases from seed: empty and negative-N phases,
// zero ComputePer (pure memory), nil generators, stores, flags. Every call
// with the same arguments returns generators with private but identically
// seeded state, so two programs can be stepped side by side.
func randomPhaseList(seed int64, n int) []Phase {
	r := rand.New(rand.NewSource(seed))
	phases := make([]Phase, n)
	for i := range phases {
		ph := Phase{
			N:          r.Intn(45) - 4, // includes empty and negative phases
			ComputePer: r.Intn(6),      // includes pure-memory groups
			Store:      r.Intn(2) == 0,
		}
		if r.Intn(4) != 0 {
			ph.Gen = &SeqGen{
				Base:   uint64(r.Intn(1 << 20)),
				Stride: uint64(64 << r.Intn(3)),
				Extent: uint64(1 + r.Intn(1<<14)),
			}
		}
		if r.Intn(3) == 0 {
			ph.Flags = BypassL1
		}
		phases[i] = ph
	}
	return phases
}

// TestPhaseProgramMatchesScanningReference feeds identical randomized phase
// sequences — empty and negative-N phases, zero ComputePer (pure memory),
// nil generators, stores, flags — to the optimized PhaseProgram and the old
// per-call-scanning form, and demands identical instruction streams.
func TestPhaseProgramMatchesScanningReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9a5e))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		mkPhases := func() []Phase { return randomPhaseList(int64(trial), n) }
		opt := NewPhaseProgram(mkPhases()...)
		ref := &scanningNext{phases: mkPhases()}
		for step := 0; ; step++ {
			got, gok := opt.Next()
			want, wok := ref.Next()
			if gok != wok || got != want {
				t.Fatalf("trial %d step %d: optimized (%+v, %v), reference (%+v, %v)",
					trial, step, got, gok, want, wok)
			}
			if !gok {
				// Exhaustion must be sticky on both.
				if in, ok := opt.Next(); ok {
					t.Fatalf("trial %d: optimized resurrected with %+v", trial, in)
				}
				break
			}
		}
	}
}

// nextOnly hides a program's concrete type, so the package-level NextMem
// takes its Next-loop fallback.
type nextOnly struct{ p Program }

func (o nextOnly) Next() (Instr, bool) { return o.p.Next() }

// TestNextMemConsumesWhatNextDoes is the property NextMem is specified by:
// on random phase lists it returns the same memory instructions as repeated
// Next calls, reports the same number of instructions consumed in front of
// each, and runs out at the same point — for the O(1) skip, for the generic
// fallback, and when Next and NextMem calls are mixed on one program.
func TestNextMemConsumesWhatNextDoes(t *testing.T) {
	coin := rand.New(rand.NewSource(0x3e3))
	variants := []struct {
		name    string
		nextMem func(p *PhaseProgram) (Instr, int, bool)
		mixed   bool // a coin decides between Next and NextMem at every step
	}{
		{name: "skip", nextMem: (*PhaseProgram).NextMem},
		{name: "generic", nextMem: func(p *PhaseProgram) (Instr, int, bool) { return NextMem(p) }},
		{name: "fallback", nextMem: func(p *PhaseProgram) (Instr, int, bool) { return NextMem(nextOnly{p}) }},
		{name: "mixed", nextMem: (*PhaseProgram).NextMem, mixed: true},
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + trial%7
		var want []Instr // the whole stream, from Next alone
		for p := NewPhaseProgram(randomPhaseList(int64(trial), n)...); ; {
			in, ok := p.Next()
			if !ok {
				break
			}
			want = append(want, in)
		}
		for _, v := range variants {
			p := NewPhaseProgram(randomPhaseList(int64(trial), n)...)
			for pos := 0; ; { // pos: instructions of want consumed so far
				if v.mixed && coin.Intn(2) == 0 {
					in, ok := p.Next()
					if ok != (pos < len(want)) || (ok && in != want[pos]) {
						t.Fatalf("trial %d %s: Next at %d gave (%+v, %v)", trial, v.name, pos, in, ok)
					}
					if !ok {
						break
					}
					pos++
					continue
				}
				in, k, ok := v.nextMem(p)
				if k < 0 || pos+k > len(want) || (ok && k == 0) {
					t.Fatalf("trial %d %s: consumed %d at %d, stream has %d", trial, v.name, k, pos, len(want))
				}
				skipped := want[pos : pos+k]
				if ok {
					skipped = skipped[:k-1]
					if in != want[pos+k-1] {
						t.Fatalf("trial %d %s: instruction %d is %+v, Next gives %+v", trial, v.name, pos+k-1, in, want[pos+k-1])
					}
				} else if pos+k != len(want) {
					t.Fatalf("trial %d %s: ended after %d instructions, stream has %d", trial, v.name, pos+k, len(want))
				}
				for _, sk := range skipped {
					if sk.Kind != Compute {
						t.Fatalf("trial %d %s: skipped over memory instruction %+v", trial, v.name, sk)
					}
				}
				pos += k
				if !ok {
					if _, k, ok := v.nextMem(p); ok || k != 0 {
						t.Fatalf("trial %d %s: exhaustion is not sticky", trial, v.name)
					}
					break
				}
			}
		}
	}
}

func TestXorShiftDeterministicAndNonZero(t *testing.T) {
	a, b := NewXorShift(7), NewXorShift(7)
	for i := 0; i < 1000; i++ {
		va, vb := a.Next(), b.Next()
		if va != vb {
			t.Fatal("same seed diverged")
		}
		if va == 0 {
			t.Fatal("xorshift produced zero")
		}
	}
}

func TestXorShiftZeroSeedRemapped(t *testing.T) {
	x := NewXorShift(0)
	if x.Next() == 0 {
		t.Error("zero seed not remapped")
	}
}

func TestXorShiftFloat64Range(t *testing.T) {
	x := NewXorShift(123)
	for i := 0; i < 1000; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestWarpSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for c := 0; c < 20; c++ {
		for w := 0; w < 20; w++ {
			s := WarpSeed(99, c, w)
			if seen[s] {
				t.Fatalf("duplicate seed for cta=%d warp=%d", c, w)
			}
			seen[s] = true
		}
	}
}

func TestInstructionCount(t *testing.T) {
	w := &FuncWorkload{
		WName: "tiny",
		Spec:  KernelSpec{NumCTAs: 2, WarpsPerCTA: 3},
		Factory: func(cta, warp int) Program {
			g := &SeqGen{Base: 0, Stride: 128, Extent: 1 << 20}
			return NewPhaseProgram(Phase{N: 4, ComputePer: 1, Gen: g})
		},
	}
	total, mem := InstructionCount(w)
	if total != 24 {
		t.Errorf("total = %d, want 24", total)
	}
	if mem != 12 {
		t.Errorf("mem = %d, want 12", mem)
	}
}

func TestFuncWorkloadPanicsWithoutFactory(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	w := &FuncWorkload{WName: "broken", Spec: KernelSpec{NumCTAs: 1, WarpsPerCTA: 1}}
	w.NewProgram(0, 0)
}

func TestWorkloadDeterminismProperty(t *testing.T) {
	// Property: instantiating the same warp twice yields identical streams.
	f := func(seed uint64, ctaRaw, warpRaw uint8) bool {
		cta, warp := int(ctaRaw)%8, int(warpRaw)%8
		mk := func() Program {
			s := WarpSeed(seed, cta, warp)
			return NewPhaseProgram(
				Phase{N: 50, ComputePer: 2, Gen: NewRandGen(0, 128, 1<<22, s)},
				Phase{N: 30, ComputePer: 1, Gen: &SeqGen{Base: 1 << 30, Start: uint64(cta) * 4096, Stride: 128, Extent: 1 << 20}},
			)
		}
		a, b := collect(mk()), collect(mk())
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
