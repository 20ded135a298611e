package gpu

import (
	"testing"

	"gpuscale/internal/trace"
)

// markerWorkload records the order in which its warps are instantiated.
type markerWorkload struct {
	name  string
	spec  trace.KernelSpec
	order *[]string
	n     int
}

func (m *markerWorkload) Name() string             { return m.name }
func (m *markerWorkload) Kernel() trace.KernelSpec { return m.spec }
func (m *markerWorkload) NewProgram(cta, warp int) trace.Program {
	*m.order = append(*m.order, m.name)
	return trace.NewPhaseProgram(trace.Phase{N: m.n})
}

func TestSequenceGridBarrier(t *testing.T) {
	// Kernel B's warps must all be instantiated after kernel A's: the
	// grid barrier means no interleaving of launches across kernels.
	var order []string
	a := &markerWorkload{name: "A", spec: trace.KernelSpec{NumCTAs: 8, WarpsPerCTA: 2}, order: &order, n: 20}
	bk := &markerWorkload{name: "B", spec: trace.KernelSpec{NumCTAs: 4, WarpsPerCTA: 2}, order: &order, n: 20}
	st, err := simulate(mono(testConfig(8)), Options{}, a, bk)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kernels != 2 {
		t.Errorf("Kernels = %d, want 2", st.Kernels)
	}
	if st.CTAs != 12 {
		t.Errorf("CTAs = %d, want 12", st.CTAs)
	}
	seenB := false
	for _, n := range order {
		if n == "B" {
			seenB = true
		}
		if seenB && n == "A" {
			t.Fatal("kernel A warp launched after kernel B started: barrier violated")
		}
	}
}

func TestSequenceAggregatesInstructions(t *testing.T) {
	k1 := computeWorkload(16, 2, 50)
	k2 := computeWorkload(8, 2, 30)
	st, err := simulate(mono(testConfig(8)), Options{}, k1, k2)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(16*2*50 + 8*2*30)
	if st.Instructions != want {
		t.Errorf("instructions = %d, want %d", st.Instructions, want)
	}
}

func TestSequenceCachesPersistAcrossKernels(t *testing.T) {
	// Kernel 1 streams a 1 MiB region (fits the 2.125 MiB 8-SM LLC);
	// kernel 2 reads the same region and should hit in the LLC, so the
	// sequence's LLC miss count stays near kernel 1's cold misses.
	mk := func(name string) trace.Workload {
		return &trace.FuncWorkload{
			WName: name,
			Spec:  trace.KernelSpec{NumCTAs: 64, WarpsPerCTA: 2},
			Factory: func(cta, warp int) trace.Program {
				id := uint64(cta*2 + warp)
				g := &trace.SeqGen{Base: id * 8192, Stride: 128, Extent: 8192}
				return trace.NewPhaseProgram(trace.Phase{N: 128, ComputePer: 1, Gen: g})
			},
		}
	}
	st, err := simulate(mono(testConfig(8)), Options{}, mk("warm"), mk("reuse"))
	if err != nil {
		t.Fatal(err)
	}
	lines := uint64(64 * 2 * 64) // distinct lines touched (8 KiB per warp)
	if st.LLCMisses > lines+lines/10 {
		t.Errorf("LLC misses = %d, want ≈%d (second kernel should hit)", st.LLCMisses, lines)
	}
}

func TestSequencePerKernelOccupancyLimits(t *testing.T) {
	// A sequence mixing an occupancy-limited kernel with an unlimited one
	// must run both to completion.
	limited := &trace.FuncWorkload{
		WName: "limited",
		Spec:  trace.KernelSpec{NumCTAs: 32, WarpsPerCTA: 2, CTAsPerSMLimit: 1},
		Factory: func(cta, warp int) trace.Program {
			return trace.NewPhaseProgram(trace.Phase{N: 10})
		},
	}
	open := computeWorkload(32, 2, 10)
	st, err := simulate(mono(testConfig(8)), Options{}, limited, open)
	if err != nil {
		t.Fatal(err)
	}
	if st.CTAs != 64 {
		t.Errorf("CTAs = %d, want 64", st.CTAs)
	}
}

func TestSequenceValidation(t *testing.T) {
	if _, err := New(testConfig(8), nil, Options{}); err == nil {
		t.Error("empty sequence accepted")
	}
	if _, err := New(testConfig(8), []trace.Workload{nil}, Options{}); err == nil {
		t.Error("nil kernel accepted")
	}
	if _, err := New(testConfig(8), []trace.Workload{
		computeWorkload(4, 2, 10),
		computeWorkload(0, 2, 10),
	}, Options{}); err == nil {
		t.Error("invalid second kernel accepted")
	}
}

func TestSequenceMatchesSingleKernelRun(t *testing.T) {
	// A one-kernel sequence is exactly a single-kernel run.
	w := streamWorkload(16, 2, 40)
	a := mustRun(t, testConfig(8), w)
	b, err := simulate(mono(testConfig(8)), Options{}, w)
	if err != nil {
		t.Fatal(err)
	}
	if a != b.Stats {
		t.Errorf("single-kernel sequence differs from a single-kernel run:\n%+v\n%+v", a, b)
	}
}
