package gpu

import (
	"testing"

	"gpuscale/internal/trace"
)

// BenchmarkSteadyStateCycle isolates the per-cycle cost of the event-driven
// loop on a synthetic memory-stalled workload without end-of-kernel effects.
func BenchmarkSteadyStateCycle(b *testing.B) {
	cfg := testConfig(16)
	mk := func() trace.Workload { return streamWorkload(256, 4, 100) }
	for _, loop := range []struct {
		name string
		opt  Options
	}{
		{"event", Options{}},
		{"legacy", Options{UseLegacyLoop: true}},
	} {
		b.Run(loop.name, func(b *testing.B) {
			var cycles int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := mustSimulate(b, mono(cfg), loop.opt, mk())
				cycles += st.Cycles
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(cycles)/1e6/secs, "simMcyc/s")
			}
		})
	}
}
