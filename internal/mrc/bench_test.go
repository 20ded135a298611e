package mrc

import (
	"testing"

	"gpuscale/internal/config"
	"gpuscale/internal/workloads"
)

var sinkCurve Curve

// BenchmarkFunctionalSweep times one whole miss-rate curve over the standard
// configurations — extraction plus five replays — for the suite's cheapest
// sweep per access (ht, compute-bound), its largest (bfs, 1.8 M accesses)
// and a cliff benchmark (dct), with the replays one after another and at
// the default bound (GOMAXPROCS; pass -cpu to vary it).
func BenchmarkFunctionalSweep(b *testing.B) {
	cfgs := config.StandardConfigs()
	for _, name := range []string{"ht", "bfs", "dct"} {
		bm, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name    string
			workers int
		}{{"sequential", 1}, {"default", 0}} {
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c, err := FunctionalSweepParallel(bm.Workload, cfgs, mode.workers)
					if err != nil {
						b.Fatal(err)
					}
					sinkCurve = c
				}
			})
		}
	}
}
