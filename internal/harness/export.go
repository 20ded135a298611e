package harness

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteStrongCSV exports the strong-scaling experiment as CSV: one row per
// (benchmark, target size, method) with the prediction, the simulated
// truth, and the error — the raw data behind Figures 4 and 5, ready for
// external plotting.
func WriteStrongCSV(w io.Writer, results []*Result) error {
	return writeErrorCSV(w, results, false)
}

// WriteWeakCSV exports the weak-scaling experiment (Figures 6 and 7) as
// CSV: the strong layout plus the simulation speedups.
func WriteWeakCSV(w io.Writer, results []*Result) error {
	return writeErrorCSV(w, results, true)
}

// writeErrorCSV writes one row per (result, target size, method), with
// the two speedup columns when speedup is set.
func writeErrorCSV(w io.Writer, results []*Result, speedup bool) error {
	cw := csv.NewWriter(w)
	header := []string{"benchmark", "class", "target_sms", "method", "predicted_ipc", "real_ipc", "abs_pct_error"}
	if speedup {
		header = append(header, "speedup_events", "speedup_wall")
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("harness: writing CSV header: %w", err)
	}
	for _, r := range results {
		for _, n := range r.Sizes[2:] {
			for _, m := range Methods {
				rec := []string{
					r.Name,
					string(r.Class),
					fmt.Sprintf("%d", n),
					m,
					fmt.Sprintf("%.4f", r.Pred[m][n]),
					fmt.Sprintf("%.4f", r.Real[n].IPC),
					fmt.Sprintf("%.4f", r.Err[m][n]),
				}
				if speedup {
					events, wall := r.Speedup(n)
					rec = append(rec, fmt.Sprintf("%.4f", events), fmt.Sprintf("%.4f", wall))
				}
				if err := cw.Write(rec); err != nil {
					return fmt.Errorf("harness: writing CSV row: %w", err)
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMissCurvesCSV exports every benchmark's miss-rate curve (Figure 2).
func WriteMissCurvesCSV(w io.Writer, results []*Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"benchmark", "class", "llc_bytes", "mpki"}); err != nil {
		return fmt.Errorf("harness: writing CSV header: %w", err)
	}
	for _, r := range results {
		for _, p := range r.Curve.Points {
			rec := []string{
				r.Name,
				string(r.Class),
				fmt.Sprintf("%d", p.CapacityBytes),
				fmt.Sprintf("%.4f", p.MPKI),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("harness: writing CSV row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
