package config

import "fmt"

// ChipletConfig describes a multi-chip-module (MCM) GPU: several identical
// GPU chiplets connected by an inter-chiplet network. Following the paper's
// Section VII-D case study, the per-chiplet configuration is fixed across
// scale models while the inter-chiplet bisection bandwidth, the aggregate
// memory bandwidth and the total SM count scale linearly with the number of
// chiplets.
type ChipletConfig struct {
	// Name identifies the configuration, e.g. "mcm-16c".
	Name string
	// NumChiplets is the number of GPU chiplets in the package.
	NumChiplets int
	// Chiplet is the per-chiplet GPU configuration (fixed across scale
	// models). Its shared resources (LLC, NoC, MCs) are chiplet-local.
	Chiplet SystemConfig
	// InterChipletGBpsPerChiplet is the inter-chiplet network bandwidth
	// provisioned per chiplet in GB/s; the bisection bandwidth of the
	// package is NumChiplets times this value divided by two halves, and
	// scales linearly with chiplet count as required by proportional
	// scale-model construction.
	InterChipletGBpsPerChiplet float64
	// InterChipletLatency is the added one-way latency in cycles for a
	// memory request that crosses chiplet boundaries.
	InterChipletLatency int
	// PageSize is the first-touch page-allocation granularity in bytes.
	PageSize int
	// CTAScheduler selects how CTAs spread over chiplets: "distributed"
	// (round-robin across chiplets, Table V's policy, the default when
	// empty) or "contiguous" (fill one chiplet before the next, which
	// trades inter-chiplet load balance for page locality).
	CTAScheduler string
}

// Target16Chiplet returns the paper's Table V 16-chiplet target system:
// 16 chiplets of 64 SMs each (1,024 SMs total) at 1.7 GHz, an 18 MB LLC per
// chiplet in 64 slices, a 1.7 TB/s intra-chiplet crossbar, 900 GB/s of
// inter-chiplet bandwidth per chiplet, and 8 memory controllers per chiplet
// providing 1.2 TB/s per chiplet.
func Target16Chiplet() ChipletConfig {
	ch := Baseline128()
	ch.Name = "chiplet-64sm"
	ch.NumSMs = 64
	ch.ClockGHz = 1.7
	ch.LLCSizeBytes = 18 * MiB
	ch.LLCSlices = 64
	ch.NoCBisectionGBps = 1700
	ch.MemControllers = 8
	ch.MemBWPerMCGBps = 1200.0 / 8
	return ChipletConfig{
		Name:                       "mcm-16c",
		NumChiplets:                16,
		Chiplet:                    ch,
		InterChipletGBpsPerChiplet: 900,
		InterChipletLatency:        80,
		PageSize:                   8 * KiB,
	}
}

// ScaleChiplets derives a proportionally scaled MCM configuration with
// numChiplets chiplets from base. The chiplet configuration is unchanged;
// only the chiplet count (and therefore aggregate SMs, LLC, and memory
// bandwidth, all of which are chiplet-local) scales, exactly as in the
// paper's case study where 4- and 8-chiplet scale models predict the
// 16-chiplet target.
func ScaleChiplets(base ChipletConfig, numChiplets int) (ChipletConfig, error) {
	if numChiplets <= 0 {
		return ChipletConfig{}, fmt.Errorf("config: numChiplets must be positive, got %d", numChiplets)
	}
	c := base
	c.NumChiplets = numChiplets
	c.Name = fmt.Sprintf("mcm-%dc", numChiplets)
	return c, nil
}

// MustScaleChiplets is ScaleChiplets but panics on error.
func MustScaleChiplets(base ChipletConfig, numChiplets int) ChipletConfig {
	c, err := ScaleChiplets(base, numChiplets)
	if err != nil {
		panic(err)
	}
	return c
}

// TotalSMs returns the SM count across all chiplets.
func (c ChipletConfig) TotalSMs() int { return c.NumChiplets * c.Chiplet.NumSMs }

// TotalLLCBytes returns the aggregate LLC capacity across all chiplets.
func (c ChipletConfig) TotalLLCBytes() int64 {
	return int64(c.NumChiplets) * c.Chiplet.LLCSizeBytes
}

// TotalMemBWGBps returns the aggregate DRAM bandwidth across all chiplets.
func (c ChipletConfig) TotalMemBWGBps() float64 {
	return float64(c.NumChiplets) * c.Chiplet.TotalMemBWGBps()
}

// Validate reports the first structural problem with the configuration.
func (c ChipletConfig) Validate() error {
	if c.NumChiplets <= 0 {
		return fmt.Errorf("config %q: NumChiplets must be positive", c.Name)
	}
	if c.InterChipletGBpsPerChiplet <= 0 {
		return fmt.Errorf("config %q: InterChipletGBpsPerChiplet must be positive", c.Name)
	}
	if c.PageSize <= 0 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("config %q: PageSize must be a positive power of two", c.Name)
	}
	if c.InterChipletLatency < 0 {
		return fmt.Errorf("config %q: InterChipletLatency must be non-negative", c.Name)
	}
	if c.CTAScheduler != "" && c.CTAScheduler != "distributed" && c.CTAScheduler != "contiguous" {
		return fmt.Errorf("config %q: unknown CTA scheduler %q", c.Name, c.CTAScheduler)
	}
	return c.Chiplet.Validate()
}

// ChipletStandardSizes are all MCM sizes used in the case study.
var ChipletStandardSizes = []int{4, 8, 16}
