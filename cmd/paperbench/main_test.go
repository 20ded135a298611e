package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestUnknownExperiment: a mistyped -exp name is an error that lists
// every valid name (main exits 2 on it), not a silent no-op.
func TestUnknownExperiment(t *testing.T) {
	_, err := selectExperiments("nosuch")
	if err == nil {
		t.Fatal("selectExperiments accepted nosuch")
	}
	for _, e := range append(experiments, experiment{name: "all"}) {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("error %q does not list %s", err, e.name)
		}
	}
	if all, err := selectExperiments("all"); err != nil || len(all) != len(experiments) {
		t.Errorf("all selects %d experiments (err %v), want %d", len(all), err, len(experiments))
	}
}

// TestCSVFiles pins which CSV files each experiment exports: every
// experiment with simulated data writes its sweep's files, and the rest
// are listed as having none.
func TestCSVFiles(t *testing.T) {
	strong := []string{"strong_scaling.csv", "miss_rate_curves.csv"}
	weak := []string{"weak_scaling.csv"}
	want := map[string][]string{
		"table1": nil, "table2": nil, "table3": nil, "table4": nil, "table5": nil, "fig8": nil,
		"fig1": strong, "fig2": strong, "fig4a": strong, "fig4b": strong, "fig5": strong,
		"fig6": weak, "fig7": weak,
		"artifact": {"strong_alt_scaling.csv"},
	}
	if len(experiments) != len(want) {
		t.Errorf("%d experiments, want %d", len(experiments), len(want))
	}
	for _, e := range experiments {
		w, ok := want[e.name]
		if !ok {
			t.Errorf("unexpected experiment %s", e.name)
			continue
		}
		var got []string
		for _, c := range e.csv {
			got = append(got, c.name)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s exports %v, want %v", e.name, got, w)
		}
	}
}

// TestCSVNoData: an experiment without CSV data still creates the
// directory and says on stderr why it stays empty.
func TestCSVNoData(t *testing.T) {
	dir := t.TempDir() + "/csv"
	selected, err := selectExperiments("table1")
	if err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	if err := exportCSV(nil, dir, selected, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "table1 has no CSV data") {
		t.Errorf("stderr %q does not say table1 has no CSV data", stderr.String())
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("csv dir: %d entries, err %v; want it created and empty", len(entries), err)
	}
}
