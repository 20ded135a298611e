package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo says where a result set was taken; two sets from different
// hosts or toolchains do not compare.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// resultFile is what -out writes and -compare reads: every run of one
// result set.
type resultFile struct {
	Host hostInfo  `json:"host"`
	Runs []*result `json:"runs"`
}

// commitOf reads the checked-out commit from .git without running git; a
// checkout that is not a repository has none.
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		buf, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref)))
		if err != nil {
			return ref
		}
		s = strings.TrimSpace(string(buf))
	}
	return s
}

func readResults(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &f, nil
}

// appendResults adds runs to the result set at path, creating it with this
// host's description if it does not exist.
func appendResults(path, root string, runs []*result) error {
	f, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f = &resultFile{Host: hostInfo{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: commitOf(root),
		}}
	} else if err != nil {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	buf, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// values collects one metric of one workload over a result set's runs.
func (f *resultFile) values(workload, name string, traced bool) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == traced && r.Correct {
			if m, ok := r.Metrics[name]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

func (f *resultFile) digests(workload string) map[string]bool {
	out := map[string]bool{}
	for _, r := range f.Runs {
		if r.Workload == workload && r.Digest != "" {
			out[r.Digest] = true
		}
	}
	return out
}

// judge compares one end-to-end metric on one workload. worse is the change
// of the median in the metric's bad direction, as a share of a's median.
// A change counts only when it exceeds both the bound and the noisier
// side's run-to-run spread; inside the bound, a spread wider than the bound
// means the runs cannot tell, which is "unresolved", never "unchanged".
func judge(m metricSpec, a, b []float64) (verdict string, worse, noise float64) {
	if len(a) == 0 || len(b) == 0 {
		return "missing", math.NaN(), math.NaN()
	}
	worse = (median(b) - median(a)) / median(a)
	if m.Better == "higher" {
		worse = -worse
	}
	if len(a) < 2 || len(b) < 2 {
		return "unresolved", worse, math.NaN() // one run has no spread to judge by
	}
	noise = math.Max(spread(a), spread(b))
	switch {
	case worse > *m.Bound && worse > noise:
		return "regressed", worse, noise
	case -worse > *m.Bound && -worse > noise:
		return "improved", worse, noise
	case noise > *m.Bound:
		return "unresolved", worse, noise
	}
	return "unchanged", worse, noise
}

// compareFiles prints one row per end-to-end metric and workload, then the
// simulated (exact) and per-layer metrics for reference. It returns 1 if
// any row regressed or any exact quantity differs.
func compareFiles(sp *spec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "a: %s  %+v  %d runs\nb: %s  %+v  %d runs\n", pathA, a.Host, len(a.Runs), pathB, b.Host, len(b.Runs))
	if a.Host.NProc != b.Host.NProc || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS || a.Host.GoVersion != b.Host.GoVersion {
		fmt.Fprintln(stdout, "warning: the two sets were taken on different hosts or toolchains; timings do not compare")
	}
	bad := false
	fmt.Fprintf(stdout, "\n%-14s %-12s %14s %14s %9s %8s %8s %5s %5s  %s\n", "workload", "metric", "median a", "median b", "worse %", "noise %", "bound %", "n a", "n b", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			xa, xb := a.values(w.Name, m.Name, false), b.values(w.Name, m.Name, false)
			if len(xa)+len(xb) == 0 {
				continue // neither set ran this workload
			}
			verdict, worse, noise := judge(m, xa, xb)
			bad = bad || verdict == "regressed"
			fmt.Fprintf(stdout, "%-14s %-12s %14.4f %14.4f %9.2f %8.2f %8.1f %5d %5d  %s\n",
				w.Name, m.Name, median(xa), median(xb), 100*worse, 100*noise, 100**m.Bound, len(xa), len(xb), verdict)
		}
	}

	fmt.Fprintf(stdout, "\nsimulated quantities (must repeat exactly)\n")
	for _, w := range sp.Workloads {
		da, db := a.digests(w.Name), b.digests(w.Name)
		if len(da)+len(db) == 0 {
			continue
		}
		verdict := "identical"
		if len(da) != 1 || len(db) != 1 || !maps.Equal(da, db) {
			verdict, bad = "DIFFERENT", true
		}
		fmt.Fprintf(stdout, "%-14s %-28s %s\n", w.Name, "stats_digest", verdict)
		for _, name := range []string{"pred_err_pct", "analytic_err_pct"} {
			xa, xb := a.values(w.Name, name, true), b.values(w.Name, name, true)
			if len(xa) == 0 || len(xb) == 0 || median(xa) == 0 {
				continue
			}
			verdict := "identical"
			if !allEqual(append(append([]float64(nil), xa...), xb...)) {
				verdict, bad = "DIFFERENT", true
			}
			fmt.Fprintf(stdout, "%-14s %-28s %s (%.6f)\n", w.Name, name, verdict, median(xb))
		}
	}

	fmt.Fprintf(stdout, "\nper-layer metrics from the traced runs (no bound; for locating a change)\n")
	for _, w := range sp.Workloads {
		for _, m := range sp.PerLayer {
			xa, xb := a.values(w.Name, m.Name, true), b.values(w.Name, m.Name, true)
			if len(xa) == 0 || len(xb) == 0 || (median(xa) == 0 && median(xb) == 0) {
				continue
			}
			fmt.Fprintf(stdout, "%-14s %-28s %14.4f %14.4f %-8s %+8.2f %%\n", w.Name, m.Name, median(xa), median(xb), m.Unit, 100*(median(xb)-median(xa))/median(xa))
		}
	}
	if bad {
		return 1
	}
	return 0
}

func allEqual(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}
