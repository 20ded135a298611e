package harness

import (
	"fmt"
	"strings"

	"gpuscale/internal/stats"
)

// RenderTable formats headers and rows as an aligned plain-text table.
func RenderTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// errorTable renders a prediction-error table: one row per result and
// target size (lead names the row under the lead headers), one column per
// method, then the average and maximum rows the paper quotes.
func errorTable(title string, results []*Result, headers []string, lead func(r *Result, n int) []string, targets ...int) string {
	nLead := len(headers)
	headers = append(headers, Methods...)
	var rows [][]string
	for _, r := range results {
		for _, n := range r.targets(targets) {
			row := lead(r, n)
			for _, m := range Methods {
				row = append(row, fmt.Sprintf("%.1f%%", r.Err[m][n]))
			}
			rows = append(rows, row)
		}
	}
	avg := append([]string{"average"}, make([]string, nLead-1)...)
	mx := append([]string{"max"}, make([]string, nLead-1)...)
	for _, m := range Methods {
		mean, max := MeanMaxError(results, m, targets...)
		avg = append(avg, fmt.Sprintf("%.1f%%", mean))
		mx = append(mx, fmt.Sprintf("%.1f%%", max))
	}
	rows = append(rows, avg, mx)
	return title + "\n" + RenderTable(headers, rows)
}

// nameClass leads a row with the benchmark and its scaling class.
func nameClass(r *Result, _ int) []string { return []string{r.Name, string(r.Class)} }

// RenderErrorTable renders a Figure 4-style prediction-error table for one
// target size of strong-scaling results.
func RenderErrorTable(results []*Result, size int) string {
	return errorTable(fmt.Sprintf("IPC prediction error, %d-SM target (strong scaling)", size),
		results, []string{"benchmark", "class"}, nameClass, size)
}

// RenderWeakErrorTable renders the Figure 6 equivalent: weak-scaling
// prediction error aggregated over the 32/64/128-SM targets.
func RenderWeakErrorTable(results []*Result) string {
	return errorTable("IPC prediction error (weak scaling)", results, []string{"benchmark", "class", "target"},
		func(r *Result, n int) []string { return append(nameClass(r, n), fmt.Sprintf("%d-SM", n)) })
}

// RenderChipletTable renders the Figure 8 equivalent: 16-chiplet IPC
// prediction error per method.
func RenderChipletTable(results []*Result) string {
	return errorTable("16-chiplet IPC prediction error (weak scaling)", results, []string{"benchmark"},
		func(r *Result, _ int) []string { return []string{r.Name} })
}

// RenderSpeedupTable renders the Figure 7 equivalent: weak-scaling
// simulation speedup per target size, in simulator events and wall time.
func RenderSpeedupTable(results []*Result) string {
	headers := []string{"benchmark", "32-SM", "64-SM", "128-SM", "128-SM (wall)"}
	var rows [][]string
	sums := map[int][]float64{}
	var walls []float64
	for _, r := range results {
		row := []string{r.Name}
		for _, n := range r.Sizes[2:] {
			events, _ := r.Speedup(n)
			row = append(row, fmt.Sprintf("%.1fx", events))
			sums[n] = append(sums[n], events)
		}
		_, wall := r.Speedup(128)
		row = append(row, fmt.Sprintf("%.1fx", wall))
		walls = append(walls, wall)
		rows = append(rows, row)
	}
	avg := []string{"average"}
	for _, n := range []int{32, 64, 128} {
		avg = append(avg, fmt.Sprintf("%.1fx", stats.Mean(sums[n])))
	}
	avg = append(avg, fmt.Sprintf("%.1fx", stats.Mean(walls)))
	rows = append(rows, avg)
	return "Simulation speedup through scale-model simulation (weak scaling)\n" +
		RenderTable(headers, rows)
}

// RenderScalingCurves renders the Figure 5 equivalent for one benchmark:
// real IPC and each method's predicted IPC as a function of system size.
func RenderScalingCurves(r *Result) string {
	headers := []string{"SMs", "real"}
	headers = append(headers, Methods...)
	var rows [][]string
	for _, n := range r.Sizes {
		row := []string{fmt.Sprintf("%d", n), fmt.Sprintf("%.1f", r.Real[n].IPC)}
		for _, m := range Methods {
			if p, ok := r.Pred[m][n]; ok {
				row = append(row, fmt.Sprintf("%.1f", p))
			} else {
				row = append(row, "-") // scale-model measurement point
			}
		}
		rows = append(rows, row)
	}
	return fmt.Sprintf("%s (%s): IPC vs system size\n%s",
		r.Name, r.Class, RenderTable(headers, rows))
}

// RenderMissRateCurve renders the Figure 2 equivalent for one benchmark:
// MPKI as a function of LLC capacity.
func RenderMissRateCurve(r *Result) string {
	headers := []string{"LLC (MiB)", "MPKI"}
	var rows [][]string
	for _, p := range r.Curve.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.3f", float64(p.CapacityBytes)/(1<<20)),
			fmt.Sprintf("%.2f", p.MPKI),
		})
	}
	return fmt.Sprintf("%s: miss-rate curve\n%s", r.Name, RenderTable(headers, rows))
}
