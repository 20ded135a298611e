// Benchmark harness for the analytic latency tier: per-request cost of
// the microsecond predictor and its wall-clock speedup over the cycle
// pipeline on identical requests. TestAnalyticPredictLatency below pins the
// sub-millisecond serving contract; the repository benchmark tracks the
// per-request cost as analytic.predict_us (go run ./bench).
package gpuscale_test

import (
	"context"
	"testing"
	"time"

	"gpuscale"
	"gpuscale/internal/server"
)

// analyticBenchCases: ht is the cheapest cycle predict (random-access, no
// cliff), bfs the representative sub-linear case.
var analyticBenchCases = []string{"ht", "bfs"}

// BenchmarkAnalyticPredict measures gpuscale.PredictAnalytic per request
// and, once per cell, the full cycle pipeline (server.EvalLocal) on the
// same canonical request, reporting the speedup the tier exists to
// provide. The per-op metric comes from a fixed-size timed loop so it
// stays stable under `-benchtime 1x`.
func BenchmarkAnalyticPredict(b *testing.B) {
	for _, bench := range analyticBenchCases {
		b.Run(bench, func(b *testing.B) {
			req := gpuscale.Request{
				Op:       gpuscale.OpPredict,
				Workload: gpuscale.WorkloadSpec{Bench: bench},
			}
			// Warm the feature cache: steady-state requests never pay
			// extraction again (features memoise by workload name).
			if _, err := gpuscale.PredictAnalytic(req); err != nil {
				b.Fatal(err)
			}
			const reps = 256
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				if _, err := gpuscale.PredictAnalytic(req); err != nil {
					b.Fatal(err)
				}
			}
			perOp := time.Since(t0) / reps

			t0 = time.Now()
			if _, _, err := server.EvalLocal(context.Background(), req, 0, 0); err != nil {
				b.Fatal(err)
			}
			cycle := time.Since(t0)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gpuscale.PredictAnalytic(req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(perOp.Nanoseconds())/1e3, "analytic_us/req")
			b.ReportMetric(float64(cycle)/float64(perOp), "vs_cycle_x")
		})
	}
}

// TestAnalyticPredictLatency pins the tier's serving contract: a warm
// analytic predict answers in well under a millisecond and its allocation
// count is a small steady-state constant (the response assembly), not
// something that grows per request — the feature cache absorbs the only
// unbounded work.
func TestAnalyticPredictLatency(t *testing.T) {
	req := gpuscale.Request{
		Op:       gpuscale.OpPredict,
		Workload: gpuscale.WorkloadSpec{Bench: "ht"},
	}
	if _, err := gpuscale.PredictAnalytic(req); err != nil {
		t.Fatal(err)
	}
	const reps = 64
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := gpuscale.PredictAnalytic(req); err != nil {
			t.Fatal(err)
		}
	}
	if perOp := time.Since(start) / reps; perOp > time.Millisecond {
		t.Errorf("warm analytic predict took %v per request, want < 1ms", perOp)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := gpuscale.PredictAnalytic(req); err != nil {
			t.Fatal(err)
		}
	})
	// About 30 allocations are ordinary response assembly; the bound
	// catches a per-request cache, feature re-extraction or benchmark-table
	// rebuild sneaking in.
	if allocs > 64 {
		t.Errorf("warm analytic predict allocates %.0f times per request, want bounded steady state", allocs)
	}
}
