package workloads

import (
	"testing"

	"gpuscale/internal/trace"
)

func TestAllHas21Benchmarks(t *testing.T) {
	bs := All()
	if len(bs) != 21 {
		t.Fatalf("got %d benchmarks, want 21 (Table II)", len(bs))
	}
	seen := map[string]bool{}
	for _, b := range bs {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
	}
}

func TestClassCountsMatchTableII(t *testing.T) {
	counts := map[ScalingClass]int{}
	for _, b := range All() {
		counts[b.Class]++
	}
	if counts[SuperLinear] != 7 {
		t.Errorf("super-linear count = %d, want 7", counts[SuperLinear])
	}
	if counts[SubLinear] != 5 {
		t.Errorf("sub-linear count = %d, want 5", counts[SubLinear])
	}
	if counts[Linear] != 9 {
		t.Errorf("linear count = %d, want 9", counts[Linear])
	}
}

func TestMetadataComplete(t *testing.T) {
	for _, b := range All() {
		if b.Name == "" || b.FullName == "" || b.Suite == "" {
			t.Errorf("%q: incomplete naming metadata", b.Name)
		}
		if b.PaperFootprintMB <= 0 || b.PaperInsnsM <= 0 {
			t.Errorf("%s: missing Table II metadata", b.Name)
		}
		if b.Workload == nil {
			t.Fatalf("%s: nil workload", b.Name)
		}
		if b.Workload.Name() != b.Name {
			t.Errorf("%s: workload name %q mismatches", b.Name, b.Workload.Name())
		}
		if err := b.Workload.Kernel().Validate(); err != nil {
			t.Errorf("%s: invalid kernel: %v", b.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("dct")
	if err != nil || b.Name != "dct" {
		t.Errorf("ByName(dct) = %v, %v", b.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

// TestByNameMatchesAll pins the name index against the suite: for every
// entry of All, ByName builds the same benchmark — metadata, launch
// geometry and the leading instruction streams of warps (0,0) and (7,3).
func TestByNameMatchesAll(t *testing.T) {
	for _, want := range All() {
		got, err := ByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		gotMeta, wantMeta := got, want
		gotMeta.Workload, wantMeta.Workload = nil, nil
		if gotMeta != wantMeta {
			t.Errorf("ByName(%q) metadata = %+v, want %+v", want.Name, gotMeta, wantMeta)
		}
		if got.Workload.Name() != want.Workload.Name() {
			t.Errorf("ByName(%q) workload name = %q, want %q", want.Name, got.Workload.Name(), want.Workload.Name())
		}
		k := want.Workload.Kernel()
		if gk := got.Workload.Kernel(); gk != k {
			t.Errorf("ByName(%q) kernel = %+v, want %+v", want.Name, gk, k)
			continue
		}
		for _, cw := range [][2]int{{0, 0}, {7, 3}} {
			cta, warp := cw[0], cw[1]
			if cta >= k.NumCTAs || warp >= k.WarpsPerCTA {
				continue
			}
			gp, wp := got.Workload.NewProgram(cta, warp), want.Workload.NewProgram(cta, warp)
			for i := 0; i < 200; i++ {
				gi, gok := gp.Next()
				wi, wok := wp.Next()
				if gi != wi || gok != wok {
					t.Errorf("ByName(%q) warp (%d,%d) instruction %d = %+v %v, want %+v %v", want.Name, cta, warp, i, gi, gok, wi, wok)
					break
				}
				if !wok {
					break
				}
			}
		}
	}
	if _, err := ByName("nope"); err == nil || err.Error() != `workloads: unknown benchmark "nope"` {
		t.Errorf("ByName(nope) error = %v", err)
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 21 {
		t.Fatalf("Names() returned %d entries", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatal("Names() not sorted")
		}
	}
}

func TestByClass(t *testing.T) {
	if got := len(ByClass(SuperLinear)); got != 7 {
		t.Errorf("ByClass(super) = %d, want 7", got)
	}
	if got := len(ByClass(SubLinear)); got != 5 {
		t.Errorf("ByClass(sub) = %d, want 5", got)
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, b := range All() {
		p1 := b.Workload.NewProgram(3, 1)
		p2 := b.Workload.NewProgram(3, 1)
		for i := 0; i < 50; i++ {
			a, oka := p1.Next()
			c, okc := p2.Next()
			if a != c || oka != okc {
				t.Errorf("%s: non-deterministic warp stream at instr %d", b.Name, i)
				break
			}
			if !oka {
				break
			}
		}
	}
}

func TestCliffBenchmarksWholeWaves(t *testing.T) {
	// Super-linear kernels must launch whole waves at every standard
	// size: CTA counts divisible by 128 SMs × 6-CTA occupancy limit.
	for _, b := range ByClass(SuperLinear) {
		k := b.Workload.Kernel()
		if k.CTAsPerSMLimit != 6 {
			t.Errorf("%s: CTAsPerSMLimit = %d, want 6", b.Name, k.CTAsPerSMLimit)
		}
		if k.NumCTAs%768 != 0 {
			t.Errorf("%s: %d CTAs not a multiple of 768", b.Name, k.NumCTAs)
		}
	}
}

func TestInstructionBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("instruction counting replays every warp")
	}
	for _, b := range All() {
		total, mem := trace.InstructionCount(b.Workload)
		if total < 200_000 || total > 20_000_000 {
			t.Errorf("%s: %d instructions outside the tractable range", b.Name, total)
		}
		if mem == 0 {
			t.Errorf("%s: no memory instructions", b.Name)
		}
	}
}

func TestWeakFamilies(t *testing.T) {
	fams := WeakAll()
	if len(fams) != 6 {
		t.Fatalf("got %d weak families, want 6 (Table IV)", len(fams))
	}
	wantClass := map[string]ScalingClass{
		"bfs": SubLinear, "bs": SubLinear,
		"btree": Linear, "as": Linear, "bp": Linear, "va": Linear,
	}
	for _, f := range fams {
		if f.Class != wantClass[f.Name] {
			t.Errorf("%s: class %s, want %s", f.Name, f.Class, wantClass[f.Name])
		}
		for _, n := range []int{8, 16} {
			w := f.ForSMs(n)
			if err := w.Kernel().Validate(); err != nil {
				t.Errorf("%s at %d SMs: %v", f.Name, n, err)
			}
		}
	}
}

func TestWeakWorkloadsScaleCTAs(t *testing.T) {
	for _, f := range WeakAll() {
		c8 := f.CTAsAt(8)
		c128 := f.CTAsAt(128)
		ratio := float64(c128) / float64(c8)
		if ratio < 15 || ratio > 17 {
			t.Errorf("%s: CTAs scale %.1fx from 8 to 128 SMs, want 16x", f.Name, ratio)
		}
	}
}

func TestWeakMCMExcludesBTree(t *testing.T) {
	for _, f := range WeakMCM() {
		if f.Name == "btree" {
			t.Error("btree should be excluded from MCM experiments (paper Section VII-D)")
		}
	}
	if len(WeakMCM()) != 5 {
		t.Errorf("MCM families = %d, want 5", len(WeakMCM()))
	}
}

func TestWeakByName(t *testing.T) {
	f, err := WeakByName("va")
	if err != nil || f.Name != "va" {
		t.Errorf("WeakByName(va) = %v, %v", f.Name, err)
	}
	if _, err := WeakByName("nope"); err == nil {
		t.Error("unknown weak name accepted")
	}
}

func TestWeakWorkloadNamesEncodeSize(t *testing.T) {
	// The harness memoises by workload name; scaled variants must have
	// distinct names.
	f := WeakBFS()
	if f.ForSMs(8).Name() == f.ForSMs(16).Name() {
		t.Error("weak workloads at different sizes share a name")
	}
}
