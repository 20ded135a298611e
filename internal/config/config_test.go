package config

import (
	"math"
	"testing"
	"testing/quick"

	"gpuscale/internal/uarch"
)

func TestBaseline128MatchesTableIII(t *testing.T) {
	c := Baseline128()
	if c.NumSMs != 128 {
		t.Errorf("NumSMs = %d, want 128", c.NumSMs)
	}
	if c.ClockGHz != 1.0 {
		t.Errorf("ClockGHz = %v, want 1.0", c.ClockGHz)
	}
	if c.WarpsPerSM != 48 || c.ThreadsPerWarp != 32 {
		t.Errorf("warps/threads = %d/%d, want 48/32", c.WarpsPerSM, c.ThreadsPerWarp)
	}
	if got := c.MaxThreadsPerSM(); got != 1536 {
		t.Errorf("MaxThreadsPerSM = %d, want 1536", got)
	}
	if c.L1SizeBytes != 48*KiB || c.L1Ways != 6 || c.L1MSHRs != 384 {
		t.Errorf("L1 = %d B %d-way %d MSHRs, want 48 KiB 6-way 384", c.L1SizeBytes, c.L1Ways, c.L1MSHRs)
	}
	if c.LLCSizeBytes != 34*MiB {
		t.Errorf("LLC = %d, want 34 MiB", c.LLCSizeBytes)
	}
	if got := c.TotalMemBWGBps(); math.Abs(got-2320) > 1e-9 {
		t.Errorf("TotalMemBW = %v GB/s, want 2320", got)
	}
	if c.NoCBisectionGBps != 2700 {
		t.Errorf("NoC bisection = %v, want 2700", c.NoCBisectionGBps)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
}

func TestScaleTableIDerivation(t *testing.T) {
	base := Baseline128()
	// Expected values follow exact proportional scaling of the Table III
	// baseline (the paper's Table I rounds a few entries; see DESIGN.md).
	cases := []struct {
		sms     int
		llcMiB  float64
		slices  int
		mcs     int
		totalBW float64
	}{
		{128, 34, 32, 16, 2320},
		{64, 17, 16, 8, 1160},
		{32, 8.5, 8, 4, 580},
		{16, 4.25, 4, 2, 290},
		{8, 2.125, 2, 1, 145},
	}
	for _, tc := range cases {
		c := MustScale(base, tc.sms)
		if err := c.Validate(); err != nil {
			t.Fatalf("%d SMs: invalid config: %v", tc.sms, err)
		}
		if got := float64(c.LLCSizeBytes) / MiB; math.Abs(got-tc.llcMiB) > 1e-9 {
			t.Errorf("%d SMs: LLC = %v MiB, want %v", tc.sms, got, tc.llcMiB)
		}
		if c.LLCSlices != tc.slices {
			t.Errorf("%d SMs: slices = %d, want %d", tc.sms, c.LLCSlices, tc.slices)
		}
		if c.MemControllers != tc.mcs {
			t.Errorf("%d SMs: MCs = %d, want %d", tc.sms, c.MemControllers, tc.mcs)
		}
		if got := c.TotalMemBWGBps(); math.Abs(got-tc.totalBW) > 1e-6 {
			t.Errorf("%d SMs: total mem BW = %v, want %v", tc.sms, got, tc.totalBW)
		}
		wantNoC := 2700 * float64(tc.sms) / 128
		if math.Abs(c.NoCBisectionGBps-wantNoC) > 1e-9 {
			t.Errorf("%d SMs: NoC = %v, want %v", tc.sms, c.NoCBisectionGBps, wantNoC)
		}
	}
}

func TestScaleKeepsPerSMResources(t *testing.T) {
	base := Baseline128()
	for _, n := range StandardSizes {
		c := MustScale(base, n)
		if c.L1SizeBytes != base.L1SizeBytes || c.L1Ways != base.L1Ways ||
			c.L1MSHRs != base.L1MSHRs || c.WarpsPerSM != base.WarpsPerSM ||
			c.ThreadsPerWarp != base.ThreadsPerWarp || c.MaxCTAsPerSM != base.MaxCTAsPerSM {
			t.Errorf("%d SMs: per-SM resources changed under scaling", n)
		}
		if c.LineSize != base.LineSize || c.DRAMLatency != base.DRAMLatency {
			t.Errorf("%d SMs: timing parameters changed under scaling", n)
		}
	}
}

func TestScaleErrors(t *testing.T) {
	base := Baseline128()
	if _, err := Scale(base, 0); err == nil {
		t.Error("Scale(base, 0) should fail")
	}
	if _, err := Scale(base, -8); err == nil {
		t.Error("Scale(base, -8) should fail")
	}
	if _, err := Scale(SystemConfig{}, 8); err == nil {
		t.Error("Scale with zero base should fail")
	}
}

func TestScaleProportionalityProperty(t *testing.T) {
	base := Baseline128()
	// Property: for any valid SM count, shared resources scale by exactly
	// numSMs/128 and aggregate bandwidth is preserved proportionally.
	f := func(raw uint8) bool {
		n := int(raw)%512 + 1
		c, err := Scale(base, n)
		if err != nil {
			return false
		}
		ratio := float64(n) / 128
		if math.Abs(float64(c.LLCSizeBytes)-float64(base.LLCSizeBytes)*ratio) > 1 {
			return false
		}
		if math.Abs(c.NoCBisectionGBps-base.NoCBisectionGBps*ratio) > 1e-9 {
			return false
		}
		return math.Abs(c.TotalMemBWGBps()-base.TotalMemBWGBps()*ratio) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStandardConfigsOrderedAndValid(t *testing.T) {
	cfgs := StandardConfigs()
	if len(cfgs) != 5 {
		t.Fatalf("got %d configs, want 5", len(cfgs))
	}
	for i, c := range cfgs {
		if c.NumSMs != StandardSizes[i] {
			t.Errorf("config %d has %d SMs, want %d", i, c.NumSMs, StandardSizes[i])
		}
		if err := c.Validate(); err != nil {
			t.Errorf("config %d invalid: %v", i, err)
		}
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*SystemConfig)
	}{
		{"zero SMs", func(c *SystemConfig) { c.NumSMs = 0 }},
		{"zero clock", func(c *SystemConfig) { c.ClockGHz = 0 }},
		{"zero warps", func(c *SystemConfig) { c.WarpsPerSM = 0 }},
		{"zero threads", func(c *SystemConfig) { c.ThreadsPerWarp = 0 }},
		{"zero CTAs", func(c *SystemConfig) { c.MaxCTAsPerSM = 0 }},
		{"non-pow2 line", func(c *SystemConfig) { c.LineSize = 100 }},
		{"tiny L1", func(c *SystemConfig) { c.L1SizeBytes = 64 }},
		{"zero slices", func(c *SystemConfig) { c.LLCSlices = 0 }},
		{"tiny LLC", func(c *SystemConfig) { c.LLCSizeBytes = 64 }},
		{"zero NoC", func(c *SystemConfig) { c.NoCBisectionGBps = 0 }},
		{"zero MCs", func(c *SystemConfig) { c.MemControllers = 0 }},
		{"zero MC BW", func(c *SystemConfig) { c.MemBWPerMCGBps = 0 }},
		{"zero MSHRs", func(c *SystemConfig) { c.L1MSHRs = 0 }},
	}
	for _, m := range mutations {
		c := Baseline128()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate did not fail", m.name)
		}
	}
}

func TestBytesPerCycle(t *testing.T) {
	c := Baseline128()
	if got := c.BytesPerCycle(2700); math.Abs(got-2700) > 1e-9 {
		t.Errorf("at 1 GHz, 2700 GB/s should be 2700 B/cycle, got %v", got)
	}
	c.ClockGHz = 2.0
	if got := c.BytesPerCycle(2700); math.Abs(got-1350) > 1e-9 {
		t.Errorf("at 2 GHz, 2700 GB/s should be 1350 B/cycle, got %v", got)
	}
}

func TestLLCSliceSize(t *testing.T) {
	c := Baseline128()
	want := int64(34*MiB) / 32
	if got := c.LLCSliceSize(); got != want {
		t.Errorf("slice size = %d, want %d", got, want)
	}
}

func TestTarget16ChipletMatchesTableV(t *testing.T) {
	c := Target16Chiplet()
	if c.NumChiplets != 16 {
		t.Errorf("NumChiplets = %d, want 16", c.NumChiplets)
	}
	if c.Chiplet.NumSMs != 64 {
		t.Errorf("SMs/chiplet = %d, want 64", c.Chiplet.NumSMs)
	}
	if c.TotalSMs() != 1024 {
		t.Errorf("TotalSMs = %d, want 1024", c.TotalSMs())
	}
	if c.Chiplet.ClockGHz != 1.7 {
		t.Errorf("clock = %v, want 1.7", c.Chiplet.ClockGHz)
	}
	if c.Chiplet.LLCSizeBytes != 18*MiB {
		t.Errorf("LLC/chiplet = %d, want 18 MiB", c.Chiplet.LLCSizeBytes)
	}
	if got := c.Chiplet.TotalMemBWGBps(); math.Abs(got-1200) > 1e-9 {
		t.Errorf("mem BW/chiplet = %v, want 1200", got)
	}
	if c.InterChipletGBpsPerChiplet != 900 {
		t.Errorf("inter-chiplet BW = %v, want 900", c.InterChipletGBpsPerChiplet)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Table V config invalid: %v", err)
	}
}

func TestScaleChiplets(t *testing.T) {
	base := Target16Chiplet()
	for _, n := range ChipletStandardSizes {
		c := MustScaleChiplets(base, n)
		if c.NumChiplets != n {
			t.Errorf("NumChiplets = %d, want %d", c.NumChiplets, n)
		}
		if c.Chiplet.NumSMs != base.Chiplet.NumSMs {
			t.Errorf("%d chiplets: per-chiplet config changed", n)
		}
		wantLLC := int64(n) * base.Chiplet.LLCSizeBytes
		if c.TotalLLCBytes() != wantLLC {
			t.Errorf("%d chiplets: total LLC = %d, want %d", n, c.TotalLLCBytes(), wantLLC)
		}
		wantBW := float64(n) * 1200
		if math.Abs(c.TotalMemBWGBps()-wantBW) > 1e-6 {
			t.Errorf("%d chiplets: total BW = %v, want %v", n, c.TotalMemBWGBps(), wantBW)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%d chiplets: invalid: %v", n, err)
		}
	}
	if _, err := ScaleChiplets(base, 0); err == nil {
		t.Error("ScaleChiplets(base, 0) should fail")
	}
}

func TestChipletValidateCatchesBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*ChipletConfig)
	}{
		{"zero chiplets", func(c *ChipletConfig) { c.NumChiplets = 0 }},
		{"zero inter BW", func(c *ChipletConfig) { c.InterChipletGBpsPerChiplet = 0 }},
		{"bad page size", func(c *ChipletConfig) { c.PageSize = 3000 }},
		{"negative latency", func(c *ChipletConfig) { c.InterChipletLatency = -1 }},
		{"bad chiplet", func(c *ChipletConfig) { c.Chiplet.NumSMs = 0 }},
	}
	for _, m := range mutations {
		c := Target16Chiplet()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate did not fail", m.name)
		}
	}
}

func TestValidateUarch(t *testing.T) {
	c := Baseline128()
	c.Uarch.IssueWidth = -1
	if err := c.Validate(); err == nil {
		t.Error("invalid variant accepted")
	}
	c = Baseline128()
	c.Uarch.L1 = uarch.L1Sectored
	c.LineSize = uarch.SectorBytes // sectoring a 32 B line is meaningless
	if err := c.Validate(); err == nil {
		t.Error("sectored L1 with line == sector accepted")
	}
	c = Baseline128()
	c.Uarch = uarch.Variant{Scheduler: uarch.SchedTwoLevel, L1: uarch.L1Sectored, NoC: uarch.RouteDeflect, IssueWidth: 2}
	if err := c.Validate(); err != nil {
		t.Errorf("full non-default variant rejected: %v", err)
	}
}

func TestScalePreservesUarch(t *testing.T) {
	base := Baseline128()
	base.Uarch = uarch.Variant{Scheduler: uarch.SchedTwoLevel, IssueWidth: 2}
	c := MustScale(base, 16)
	if c.Uarch != base.Uarch {
		t.Errorf("Scale dropped the variant: %+v", c.Uarch)
	}
}
