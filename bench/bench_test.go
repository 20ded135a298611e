package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func loadTestSpec(t *testing.T) (*spec, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return sp, root
}

// TestSpecSchema holds BENCHMARK.json to the benchmark contract and to the
// bench's own tables, so that neither can drift from the other.
func TestSpecSchema(t *testing.T) {
	sp, root := loadTestSpec(t)

	buf, err := os.ReadFile(filepath.Join(root, specFile))
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf, &top); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(top) != len(wantKeys) {
		t.Errorf("%s has %d top-level keys, want exactly %v", specFile, len(top), wantKeys)
	}
	for _, k := range wantKeys {
		if _, ok := top[k]; !ok {
			t.Errorf("%s lacks key %q", specFile, k)
		}
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1, 60]", sp.RunSeconds)
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", sp.Paths)
	}
	for _, arg := range sp.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the repository", arg)
		}
	}

	if len(sp.Workloads) < 2 || len(sp.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(sp.Workloads))
	}
	var names []string
	for _, w := range sp.Workloads {
		name(w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Errorf("workload %s is in %s but not in the bench: %v", w.Name, specFile, err)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, the bench runs %v", names, workloadNames)
	}

	hasSetup := false
	for _, m := range sp.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: every end-to-end metric needs a bound in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range sp.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Bound != nil {
			t.Errorf("metric %s: per-layer metrics have no bound", m.Name)
		}
		if layerMoves[m.Name] == "" {
			t.Errorf("metric %s: layerMoves does not say which end-to-end metric it should move", m.Name)
		}
	}
	if len(layerMoves) != len(sp.PerLayer) {
		t.Errorf("layerMoves has %d entries, per_layer %d", len(layerMoves), len(sp.PerLayer))
	}
}

// TestSmoke runs every workload at toy sizes, untraced and traced: the
// output checks must pass, every end-to-end metric must come out above
// zero, and the traced run must write its trace file.
func TestSmoke(t *testing.T) {
	sp, root := loadTestSpec(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			mode := "untraced"
			if traced {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) { smoke(t, sp, root, name, traced) })
		}
	}
}

func smoke(t *testing.T, sp *spec, root, name string, traced bool) {
	p := &params{spec: sp, root: root, seed: 1, seconds: 0.2, trace: traced, toy: true}
	r := runWorkload(context.Background(), name, p)
	var out bytes.Buffer
	r.print(&out)
	if !r.Correct || r.Failed != 0 {
		t.Fatalf("%s traced=%v failed:\n%s", name, traced, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct   *bool             `json:"correct"`
		Attempted *int              `json:"attempted"`
		Failed    *int              `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil || last.Correct == nil || last.Attempted == nil || last.Failed == nil {
		t.Fatalf("%s: last line is not the contract's JSON object: %v\n%s", name, err, lines[len(lines)-1])
	}
	want := sp.EndToEnd
	if traced {
		want = sp.PerLayer
	}
	if len(last.Metrics) != len(want) {
		t.Errorf("%s traced=%v: %d metrics printed, contract lists %d", name, traced, len(last.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := last.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
		}
		if !traced && got.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must be above zero", name, m.Name, got.Value)
		}
	}
	if !traced {
		return
	}
	path := filepath.Join(p.outDir(), "trace-"+name+"-seed1.json")
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	buf, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(buf, &tf)
	}
	if err != nil || len(tf.TraceEvents) == 0 {
		t.Errorf("%s: trace file %s unreadable or empty: %v", name, path, err)
	}
	if last.Metrics["trace_overhead_pct"].Value == 0 {
		t.Errorf("%s: traced run did not report trace_overhead_pct", name)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// which is what the benchmark driver judges spread with.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 9}, 4, 10},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	bound := 0.10
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: &bound}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 130, 80, 120, 70, 110, 90, 140, 60, 100}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "unchanged"},
		{"slower latency", lower, steady, scale(steady, 1.2), "regressed"},
		{"faster latency", lower, steady, scale(steady, 0.8), "improved"},
		{"lower throughput", higher, steady, scale(steady, 0.8), "regressed"},
		{"within bound", lower, steady, scale(steady, 1.05), "unchanged"},
		{"noise hides it", lower, noisy, scale(noisy, 1.05), "unresolved"},
		{"one run each", lower, steady[:1], steady[:1], "unresolved"},
		{"nothing measured", lower, nil, steady, "missing"},
	} {
		if got, _, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: judged %q, want %q", c.name, got, c.want)
		}
	}
}

// TestSelfTimes checks that a span's self time leaves out what its children
// cover, counting overlapping children once.
func TestSelfTimes(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr := &tracer{spans: []span{
		{Name: "request", Op: 1, Parent: -1, Start: 0, End: msec(100)},
		{Name: "sim", Op: 1, Parent: 0, Start: msec(10), End: msec(60)},
		{Name: "sim", Op: 1, Parent: 0, Start: msec(20), End: msec(70)}, // overlaps the first
		{Name: "encode", Op: 1, Parent: 0, Start: msec(80), End: msec(90)},
	}}
	got := map[string]time.Duration{}
	for _, lt := range tr.selfTimes() {
		got[lt.Name] = lt.Self
	}
	if got["request"] != msec(30) || got["sim"] != msec(100) || got["encode"] != msec(10) {
		t.Errorf("self times %v, want request 30ms, sim 100ms, encode 10ms", got)
	}
}
