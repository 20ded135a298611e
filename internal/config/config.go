// Package config defines GPU system configurations and the proportional
// resource-scaling rule that derives scale models from target systems.
//
// The central idea of scale-model simulation (paper Section II/III) is that a
// scale model a factor F smaller than the target keeps the per-SM private
// resources identical while the resources shared across SMs — LLC capacity,
// NoC bisection bandwidth, and off-chip memory bandwidth — are scaled down by
// the same factor F. Scale derives such configurations, and Baseline128
// reproduces the paper's Table III baseline from which Table I's scale models
// and smaller targets are generated.
package config

import (
	"fmt"

	"gpuscale/internal/uarch"
)

// Common capacity units in bytes.
const (
	KiB = 1024
	MiB = 1024 * KiB
)

// SystemConfig describes a monolithic GPU system: the per-SM configuration
// (which never changes across scale models) and the shared resources (which
// scale proportionally with the number of SMs).
type SystemConfig struct {
	// Name identifies the configuration in reports, e.g. "gpu-128sm".
	Name string

	// NumSMs is the number of streaming multiprocessors.
	NumSMs int

	// ClockGHz is the SM clock frequency in GHz. All latencies and
	// bandwidths in the simulator are expressed in SM cycles, using this
	// clock to convert GB/s figures into bytes per cycle.
	ClockGHz float64

	// Per-SM private configuration (identical across scale models).

	// WarpsPerSM is the maximum number of resident warps per SM.
	WarpsPerSM int
	// ThreadsPerWarp is the SIMT width.
	ThreadsPerWarp int
	// MaxCTAsPerSM limits concurrent thread blocks per SM.
	MaxCTAsPerSM int
	// L1SizeBytes is the per-SM private L1 data cache capacity.
	L1SizeBytes int64
	// L1Ways is the L1 associativity.
	L1Ways int
	// L1MSHRs is the number of L1 miss-status holding registers.
	L1MSHRs int

	// Shared resources (scaled proportionally with NumSMs).

	// LLCSizeBytes is the total shared last-level cache capacity.
	LLCSizeBytes int64
	// LLCSlices is the number of address-interleaved LLC slices.
	LLCSlices int
	// LLCWays is the associativity of each LLC slice.
	LLCWays int
	// NoCBisectionGBps is the crossbar bisection bandwidth in GB/s.
	NoCBisectionGBps float64
	// MemControllers is the number of memory controllers.
	MemControllers int
	// MemBWPerMCGBps is the DRAM bandwidth per memory controller in GB/s.
	MemBWPerMCGBps float64

	// Timing parameters (identical across scale models).

	// LineSize is the cache line size in bytes for both L1 and LLC.
	LineSize int
	// L1HitLatency is the L1 hit latency in cycles.
	L1HitLatency int
	// LLCHitLatency is the LLC access latency in cycles (past the NoC).
	LLCHitLatency int
	// DRAMLatency is the fixed DRAM access latency in cycles (past the MC
	// bandwidth server).
	DRAMLatency int
	// NoCBaseLatency is the uncongested one-way NoC traversal latency.
	NoCBaseLatency int
	// ComputeLatency is the dependent-issue latency of an arithmetic
	// instruction in cycles.
	ComputeLatency int
	// Uarch selects the microarchitecture variant: warp scheduler, L1 fill
	// granularity, NoC routing discipline and issue width. The zero value is
	// the paper's Table III baseline (GTO, line-grain L1, crossbar, single
	// issue). Variants change simulated timing, so they are part of a
	// configuration's identity everywhere configurations are hashed.
	Uarch uarch.Variant
}

// Baseline128 returns the paper's 128-SM baseline target system (Table III):
// 1.0 GHz SMs, 48 warps/SM, 1536 threads/SM, 48 KB 6-way L1 with 384 MSHRs,
// a 34 MB LLC in 32 slices, a 2.7 TB/s crossbar and 2.3 TB/s of DRAM
// bandwidth spread over 16 memory controllers at 145 GB/s each.
func Baseline128() SystemConfig {
	return SystemConfig{
		Name:             "gpu-128sm",
		NumSMs:           128,
		ClockGHz:         1.0,
		WarpsPerSM:       48,
		ThreadsPerWarp:   32,
		MaxCTAsPerSM:     16,
		L1SizeBytes:      48 * KiB,
		L1Ways:           6,
		L1MSHRs:          384,
		LLCSizeBytes:     34 * MiB,
		LLCSlices:        32,
		LLCWays:          64,
		NoCBisectionGBps: 2700,
		MemControllers:   16,
		MemBWPerMCGBps:   145,
		LineSize:         128,
		L1HitLatency:     4,
		LLCHitLatency:    30,
		DRAMLatency:      250,
		NoCBaseLatency:   10,
		ComputeLatency:   4,
	}
}

// Scale derives a proportionally scaled configuration with numSMs SMs from
// base. Per-SM resources are kept identical; LLC capacity, LLC slice count,
// NoC bisection bandwidth, memory-controller count and aggregate memory
// bandwidth all scale by numSMs/base.NumSMs. This reproduces the paper's
// Table I derivation (a 16-SM scale model of the 128-SM target has 1/8th the
// LLC, 1/8th the bisection bandwidth and 1/8th the memory bandwidth).
//
// The memory-controller count never drops below one; when the proportional
// MC count would be fractional, the per-MC bandwidth is adjusted so that the
// aggregate bandwidth still scales exactly proportionally.
func Scale(base SystemConfig, numSMs int) (SystemConfig, error) {
	if numSMs <= 0 {
		return SystemConfig{}, fmt.Errorf("config: numSMs must be positive, got %d", numSMs)
	}
	if base.NumSMs <= 0 {
		return SystemConfig{}, fmt.Errorf("config: base has invalid NumSMs %d", base.NumSMs)
	}
	f := float64(numSMs) / float64(base.NumSMs)
	c := base
	c.Name = fmt.Sprintf("gpu-%dsm", numSMs)
	c.NumSMs = numSMs
	c.LLCSizeBytes = int64(float64(base.LLCSizeBytes) * f)
	c.LLCSlices = maxInt(1, int(float64(base.LLCSlices)*f+0.5))
	c.NoCBisectionGBps = base.NoCBisectionGBps * f
	totalBW := base.TotalMemBWGBps() * f
	mcs := maxInt(1, int(float64(base.MemControllers)*f+0.5))
	c.MemControllers = mcs
	c.MemBWPerMCGBps = totalBW / float64(mcs)
	return c, nil
}

// MustScale is Scale but panics on error; convenient for static tables.
func MustScale(base SystemConfig, numSMs int) SystemConfig {
	c, err := Scale(base, numSMs)
	if err != nil {
		panic(err)
	}
	return c
}

// TotalMemBWGBps returns the aggregate DRAM bandwidth in GB/s.
func (c SystemConfig) TotalMemBWGBps() float64 {
	return float64(c.MemControllers) * c.MemBWPerMCGBps
}

// BytesPerCycle converts a GB/s figure to bytes per SM cycle for this
// configuration's clock.
func (c SystemConfig) BytesPerCycle(gbps float64) float64 {
	return gbps / c.ClockGHz
}

// LLCSliceSize returns the capacity of a single LLC slice in bytes.
func (c SystemConfig) LLCSliceSize() int64 {
	return c.LLCSizeBytes / int64(c.LLCSlices)
}

// MaxThreadsPerSM returns the thread-residency limit per SM.
func (c SystemConfig) MaxThreadsPerSM() int {
	return c.WarpsPerSM * c.ThreadsPerWarp
}

// Validate reports the first structural problem with the configuration, or
// nil if it is usable by the simulator.
func (c SystemConfig) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return fmt.Errorf("config %q: NumSMs must be positive", c.Name)
	case c.ClockGHz <= 0:
		return fmt.Errorf("config %q: ClockGHz must be positive", c.Name)
	case c.WarpsPerSM <= 0:
		return fmt.Errorf("config %q: WarpsPerSM must be positive", c.Name)
	case c.ThreadsPerWarp <= 0:
		return fmt.Errorf("config %q: ThreadsPerWarp must be positive", c.Name)
	case c.MaxCTAsPerSM <= 0:
		return fmt.Errorf("config %q: MaxCTAsPerSM must be positive", c.Name)
	case c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("config %q: LineSize must be a positive power of two, got %d", c.Name, c.LineSize)
	case c.L1SizeBytes < int64(c.LineSize)*int64(c.L1Ways):
		return fmt.Errorf("config %q: L1 smaller than one set", c.Name)
	case c.LLCSlices <= 0:
		return fmt.Errorf("config %q: LLCSlices must be positive", c.Name)
	case c.LLCSizeBytes < int64(c.LLCSlices)*int64(c.LineSize):
		return fmt.Errorf("config %q: LLC smaller than one line per slice", c.Name)
	case c.NoCBisectionGBps <= 0:
		return fmt.Errorf("config %q: NoCBisectionGBps must be positive", c.Name)
	case c.MemControllers <= 0:
		return fmt.Errorf("config %q: MemControllers must be positive", c.Name)
	case c.MemBWPerMCGBps <= 0:
		return fmt.Errorf("config %q: MemBWPerMCGBps must be positive", c.Name)
	case c.L1MSHRs <= 0:
		return fmt.Errorf("config %q: L1MSHRs must be positive", c.Name)
	}
	if err := c.Uarch.Validate(); err != nil {
		return fmt.Errorf("config %q: %w", c.Name, err)
	}
	if c.Uarch.L1 == uarch.L1Sectored && c.LineSize <= uarch.SectorBytes {
		return fmt.Errorf("config %q: sectored L1 needs LineSize > %d bytes, got %d", c.Name, uarch.SectorBytes, c.LineSize)
	}
	return nil
}

// StandardSizes are the SM counts used throughout the paper: 8- and 16-SM
// scale models and 32-, 64- and 128-SM target systems.
var StandardSizes = []int{8, 16, 32, 64, 128}

// StandardConfigs returns the five paper configurations of Table I, derived
// from the 128-SM baseline by proportional scaling, ordered smallest first.
func StandardConfigs() []SystemConfig {
	base := Baseline128()
	out := make([]SystemConfig, 0, len(StandardSizes))
	for _, n := range StandardSizes {
		out = append(out, MustScale(base, n))
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
