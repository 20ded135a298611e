// Command bench is the repository's benchmark: five workloads from the SM
// tick to gpuscaled's response bytes, end-to-end metrics with regression
// bounds, per-layer attribution measured from outside the program, and
// output checks. BENCHMARK.json at the module root is its contract and
// README.md its manual.
//
//	go run ./bench                          every workload, end-to-end metrics
//	go run ./bench -trace 1                 every workload, per-layer metrics + trace files
//	go run ./bench -workload svc-hot -seed 7
//	go run ./bench -runs 10 -out a.json     a result set for -compare
//	go run ./bench -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// params is what one run of one workload is given.
type params struct {
	spec    *spec
	root    string // module root: where BENCHMARK.json and testdata/ are
	seed    int64
	seconds float64 // how long to measure
	trace   bool
	toy     bool // toy sizes, for `go test`
}

// rng returns the run's random source. Everything random — operation order,
// Zipf draws — comes from the seed; the program under test sees only the
// inputs generated from it.
func (p *params) rng() *rand.Rand { return rand.New(rand.NewSource(p.seed)) }

// outDir is where the bench may write: trace files and the service
// workloads' store directories, all inside the checkout.
func (p *params) outDir() string { return filepath.Join(p.root, "bench", "out") }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Digest is the SHA-256 of every simulated cell's statistics (cycle
	// workloads only).
	Digest string `json:"stats_digest,omitempty"`

	spec     *spec
	notes    []string
	problems []string
}

// set records a metric; its unit comes from BENCHMARK.json, and a name the
// contract does not list is a bug in the bench.
func (r *result) set(name string, v float64) {
	m, ok := r.spec.metric(name)
	if !ok {
		r.fail("metric %q is not listed in %s", name, specFile)
		return
	}
	r.Metrics[name] = metric{Value: v, Unit: m.Unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check; the run is then not correct and the
// process exits non-zero.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// table adds a small table to the notes: one labelled row of numbers per
// call of add.
func (r *result) table(title string, cols []string, fill func(add func(label string, vals ...float64))) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n    %-34s", title, "")
	for _, c := range cols {
		fmt.Fprintf(&b, " %14s", c)
	}
	fill(func(label string, vals ...float64) {
		fmt.Fprintf(&b, "\n    %-34s", label)
		for _, v := range vals {
			fmt.Fprintf(&b, " %14.3f", v)
		}
	})
	r.notes = append(r.notes, b.String())
}

// workload is one of the five. setUp builds inputs, boots what the workload
// needs and runs one untimed warm-up operation; it is timed as setup_s.
type workload interface {
	setUp(ctx context.Context, p *params) error
	tearDown()
	// measure is the untraced run: it sets every end-to-end metric but
	// setup_s.
	measure(ctx context.Context, p *params, r *result)
	// traced is the per-layer run: spans around each call into a layer.
	traced(ctx context.Context, p *params, r *result, tr *tracer)
}

var workloadNames = []string{"cycle-mono", "cycle-mcm", "cycle-shard2", "svc-fresh", "svc-hot"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "cycle-mono", "cycle-mcm", "cycle-shard2":
		return &cycleWorkload{name: name}, nil
	case "svc-fresh":
		return &freshWorkload{}, nil
	case "svc-hot":
		return &hotWorkload{}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// setupReps is how often a run sets its workload up. Set-up is short next
// to the measurement, so one sample would be mostly noise; the median of
// three is reported and the last set-up is the one measured on.
const setupReps = 3

func runWorkload(ctx context.Context, name string, p *params) *result {
	r := &result{Workload: name, Seed: p.seed, Trace: p.trace, Correct: true, Metrics: map[string]metric{}, spec: p.spec}
	var w workload
	var setups []float64
	reps := setupReps
	if p.toy {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if w != nil {
			w.tearDown()
		}
		var err error
		if w, err = newWorkload(name); err != nil {
			r.fail("%v", err)
			return r
		}
		t0 := time.Now()
		err = w.setUp(ctx, p)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			w.tearDown()
			r.fail("set-up: %v", err)
			return r
		}
	}
	defer w.tearDown()

	want := p.spec.EndToEnd
	if p.trace {
		want = p.spec.PerLayer
		tr := newTracer()
		w.traced(ctx, p, r, tr)
		r.table("self time per layer (span minus what its children cover)", []string{"spans", "total ms", "self ms", "p50 ms"}, func(add func(string, ...float64)) {
			for _, lt := range tr.selfTimes() {
				add(lt.Name, float64(lt.Count), ms(lt.Total), ms(lt.Self), ms(medianDuration(lt.durs)))
			}
		})
		path := filepath.Join(p.outDir(), fmt.Sprintf("trace-%s-seed%d.json", name, p.seed))
		if err := tr.write(path); err != nil {
			r.fail("writing trace: %v", err)
		} else {
			r.note("trace written to %s (%d spans)", path, len(tr.spans))
		}
	} else {
		w.measure(ctx, p, r)
		r.set("setup_s", median(setups))
	}
	if r.Attempted == 0 {
		r.fail("nothing was attempted")
		r.Attempted = 1
	}
	if r.Failed > 0 {
		r.Correct = false
	}
	for _, m := range want {
		if _, ok := r.Metrics[m.Name]; ok {
			continue
		}
		if p.trace {
			// A layer this workload does not run has nothing to report.
			r.Metrics[m.Name] = metric{Value: 0, Unit: m.Unit}
		} else if r.Correct {
			r.fail("end-to-end metric %s was not measured", m.Name)
		}
	}
	return r
}

// print writes the run for a reader, then — as the last line — the one JSON
// object the benchmark contract asks for.
func (r *result) print(w io.Writer) {
	mode := "end-to-end (untraced)"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s\n", r.Workload, r.Seed, mode)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if r.Trace && m.Value == 0 {
			continue // a layer this workload does not run
		}
		line := fmt.Sprintf("  %-30s %16.4f %-8s", n, m.Value, m.Unit)
		if moves, ok := layerMoves[n]; ok {
			line += "  -> " + moves
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "  %-30s %16.4f %-8s (%d failed of %d attempted)\n", "fail_share", float64(r.Failed)/float64(r.Attempted), "share", r.Failed, r.Attempted)
	if r.Digest != "" {
		fmt.Fprintf(w, "  %-30s %s\n", "stats_digest", r.Digest)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // numbers and strings only
	}
	fmt.Fprintf(w, "%s\n", line)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); default all")
	seed := fs.Int64("seed", 1, "seed for operation order and Zipf draws")
	seconds := fs.Float64("seconds", 0, "seconds to measure per workload (default run_seconds in "+specFile+")")
	trace := fs.Int("trace", 0, "1 = per-layer run with spans and a trace file; 0 = end-to-end run")
	runs := fs.Int("runs", 1, "repeat each workload with seeds seed, seed+1, ...")
	out := fs.String("out", "", "append the runs to this result file (for -compare)")
	compare := fs.Bool("compare", false, "judge two result files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *runs < 1 {
		fmt.Fprintln(stderr, "bench: unexpected arguments; -trace takes 0 or 1")
		return 2
	}
	names := workloadNames
	if *name != "" {
		names = []string{*name}
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	// The load comes from this one process, on every core the box has.
	runtime.GOMAXPROCS(runtime.NumCPU())

	ok := true
	var results []*result
	for i := 0; i < *runs; i++ {
		for _, n := range names {
			p := &params{spec: sp, root: root, seed: *seed + int64(i), seconds: *seconds, trace: *trace == 1}
			r := runWorkload(context.Background(), n, p)
			r.print(stdout)
			results = append(results, r)
			ok = ok && r.Correct
		}
	}
	if *out != "" {
		if err := appendResults(*out, root, results); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: an output check failed")
		return 1
	}
	return 0
}
