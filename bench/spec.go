package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// specFile is the benchmark's contract at the root of the repository. It is
// the only place metric names, units, directions and bounds are written
// down; the runner looks units up here and refuses a metric it does not
// list.
const specFile = "BENCHMARK.json"

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may worsen before -compare calls it regressed. Per-layer
	// metrics have none.
	Bound *float64 `json:"bound,omitempty"`
}

type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func (s *spec) metric(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// findRoot walks up from the working directory to the module root: the
// directory holding both go.mod and BENCHMARK.json. `go run ./bench` starts
// there; `go test ./bench` starts one level below.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "go.mod")) && fileExists(filepath.Join(dir, specFile)) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no directory above the working directory holds go.mod and %s", specFile)
		}
		dir = parent
	}
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

func loadSpec(root string) (*spec, error) {
	buf, err := os.ReadFile(filepath.Join(root, specFile))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", specFile, err)
	}
	return &s, nil
}

// layerMoves records, for every per-layer metric, the end-to-end metric and
// workload it is expected to move — written down before anything is
// measured, so a later change can be checked against its own prediction.
// The schema test keeps it in step with BENCHMARK.json.
var layerMoves = map[string]string{
	"sim_mips":                    "ops_per_s on cycle-mono, cycle-mcm, cycle-shard2 (same quantity, times instructions per cell)",
	"gpu.host_ns_per_event":       "ops_per_s on cycle-mono; no change on svc-hot",
	"chiplet.host_ns_per_event":   "ops_per_s on cycle-mcm; no change on svc-hot",
	"gpu.event_vs_dense":          "nothing end to end: evidence for the dense-vs-wheel decision",
	"parallel.shard2_vs_seq":      "ops_per_s on cycle-shard2 only",
	"parallel.quantum_vs_barrier": "ops_per_s on cycle-shard2 only (quantum cells are traced-run only)",
	"cache.l1_access_ns":          "ops_per_s on cycle-* by its share; p50_ms on svc-fresh through them",
	"cache.l1_sectored_access_ns": "p50_ms on svc-fresh (sectored simulate requests) only",
	"cache.llc_access_ns":         "ops_per_s on cycle-* by its share; p50_ms on svc-fresh through them",
	"cache.mshr_ns":               "ops_per_s on cycle-* by its share (bfs, dct cells most)",
	"noc.transfer_ns":             "ops_per_s on cycle-* by its share",
	"noc.deflect_transfer_ns":     "p50_ms on svc-fresh (deflect simulate requests) only",
	"dram.access_ns":              "ops_per_s on cycle-* by its share (va, bfs cells most)",
	"sm.tick_ns":                  "ops_per_s on cycle-* by its share (compute-bound cells most: ht)",
	"timing.step_ns":              "ops_per_s on cycle-mono, cycle-mcm by its share",
	"trace.next_ns":               "ops_per_s on cycle-* (inside sm.tick), mrc.sweep_ms on svc-fresh",
	"gpu.glue_share":              "ops_per_s on cycle-mono: what no component replay accounts for",
	"chiplet.glue_share":          "ops_per_s on cycle-mcm: what no component replay accounts for",
	"pred_err_pct":                "itself: simulated, exact; a simulator-speed change must leave it identical",
	"analytic_err_pct":            "itself: simulated, exact; moves only with internal/analytic or the simulators",
	"model.l1_miss_pct":           "simulated, exact; pred_err_pct when it moves",
	"model.llc_mpki":              "simulated, exact; pred_err_pct when it moves",
	"model.noc_util_pct":          "simulated, exact",
	"model.dram_util_pct":         "simulated, exact",
	"model.fmem_pct":              "simulated, exact; pred_err_pct through Eq. 3",
	"model.mshr_stalls":           "simulated, exact",
	"model.skipped_cycle_pct":     "simulated, exact; gpu.host_ns_per_event (skipped cycles cost no host time)",
	"gpuscale.parse_us":           "p50_ms, ops_per_s on svc-hot; under 1 % of svc-fresh",
	"gpuscale.canon_us":           "p50_ms, ops_per_s on svc-hot; under 1 % of svc-fresh",
	"harness.store_hit_mem_us":    "p50_ms, ops_per_s on svc-hot",
	"harness.store_hit_disk_us":   "tail_ms on svc-hot",
	"harness.store_put_us":        "p50_ms on svc-fresh (under 1 %); no change on svc-hot",
	"analytic.predict_us":         "p50_ms, ops_per_s on svc-hot",
	"server.http_overhead_us":     "p50_ms, ops_per_s on svc-hot; under 1 % of svc-fresh",
	"server.encode_us":            "p50_ms on svc-fresh (under 1 %)",
	"engine.batch_wait_ms":        "p50_ms on svc-fresh; no change on svc-hot",
	"mrc.sweep_ms":                "p50_ms on svc-fresh (predict and mrc requests)",
	"core.predict_us":             "p50_ms on svc-fresh (under 1 %)",
	"path.computed_p50_ms":        "p50_ms on svc-fresh",
	"path.memory_p50_us":          "p50_ms on svc-hot",
	"path.disk_p50_us":            "tail_ms on svc-hot",
	"p99_ms":                      "tail_ms on svc-hot (same quantity, traced run)",
	"trace_overhead_pct":          "nothing: the cost of the bench's own spans",
}
