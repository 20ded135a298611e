package trace

import (
	"math"
	"testing"
)

// An AddrGen with no describer, for the fallback path.
type opaqueGen struct{}

func (opaqueGen) Next() uint64 { return 0 }

func TestDescribeGen(t *testing.T) {
	seq := &SeqGen{Base: 10, Start: 3, Stride: 128, Extent: 4096}
	d := seq.DescribeGen()
	if len(d) != 1 || d[0].Class != GenSeq || d[0].Base != 10 || d[0].Start != 3 ||
		d[0].Stride != 128 || d[0].Extent != 4096 || d[0].Weight != 1 {
		t.Fatalf("SeqGen descriptor = %+v", d)
	}

	rnd := NewRandGen(7, 128, 1<<20, 42)
	d = rnd.DescribeGen()
	if len(d) != 1 || d[0].Class != GenRand || d[0].Base != 7 || d[0].Extent != 1<<20 {
		t.Fatalf("RandGen descriptor = %+v", d)
	}

	il := &InterleaveGen{GenA: seq, GenB: opaqueGen{}, A: 3, B: 1}
	d = il.DescribeGen()
	if len(d) != 2 {
		t.Fatalf("InterleaveGen descriptors = %+v", d)
	}
	if d[0].Class != GenSeq || math.Abs(d[0].Weight-0.75) > 1e-12 {
		t.Errorf("interleave A branch = %+v", d[0])
	}
	if d[1].Class != GenUnknown || math.Abs(d[1].Weight-0.25) > 1e-12 {
		t.Errorf("interleave B branch = %+v", d[1])
	}
}

func TestDescribeGenIsNonDestructive(t *testing.T) {
	seq := &SeqGen{Stride: 128, Extent: 1024}
	want := []uint64{0, 128, 256}
	seq.DescribeGen()
	for i, w := range want {
		if got := seq.Next(); got != w {
			t.Fatalf("address %d after describe = %d, want %d", i, got, w)
		}
	}
}

func TestDescribePhases(t *testing.T) {
	p := NewPhaseProgram(
		Phase{N: 14, ComputePer: 6, Gen: &SeqGen{Stride: 128, Extent: 1 << 20}},
		Phase{N: 0, ComputePer: 1, Gen: &SeqGen{Stride: 128, Extent: 128}}, // skipped
		Phase{N: 5, ComputePer: 2}, // pure compute
		Phase{N: 3, ComputePer: 0, Store: true, Flags: BypassL1, Gen: NewRandGen(0, 128, 1<<16, 1)},
	)
	descs := p.DescribePhases()
	if len(descs) != 3 {
		t.Fatalf("got %d phase descriptors, want 3", len(descs))
	}
	if descs[0].MemCount() != 2 { // 14 / (6+1)
		t.Errorf("phase 0 MemCount = %d, want 2", descs[0].MemCount())
	}
	if len(descs[1].Gens) != 0 || descs[1].MemCount() != 0 {
		t.Errorf("pure-compute phase = %+v", descs[1])
	}
	if !descs[2].Store || descs[2].Flags&BypassL1 == 0 || descs[2].MemCount() != 3 {
		t.Errorf("store phase = %+v", descs[2])
	}

	// Description is stable after partial execution: consume a few
	// instructions and describe again.
	for i := 0; i < 10; i++ {
		p.Next()
	}
	again := p.DescribePhases()
	if len(again) != 3 || again[0].N != 14 {
		t.Errorf("post-execution description changed: %+v", again)
	}
}
