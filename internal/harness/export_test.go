package harness

import (
	"encoding/csv"
	"strings"
	"testing"
)

func TestWriteStrongCSV(t *testing.T) {
	h := New()
	r, err := h.RunStrong(tinyBench("csv1"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteStrongCSV(&sb, []*Result{r}); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Header + 3 targets × 5 methods.
	if len(recs) != 1+3*5 {
		t.Fatalf("rows = %d, want 16", len(recs))
	}
	if recs[0][0] != "benchmark" || len(recs[1]) != 7 {
		t.Errorf("unexpected CSV shape: %v", recs[0])
	}
}

func TestWriteWeakCSV(t *testing.T) {
	h := New()
	r, err := h.RunWeak(tinyWeak("csv2"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteWeakCSV(&sb, []*Result{r}); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+3*5 {
		t.Fatalf("rows = %d, want 16", len(recs))
	}
	if len(recs[1]) != 9 {
		t.Errorf("weak CSV should have 9 columns, got %d", len(recs[1]))
	}
}

func TestWriteMissCurvesCSV(t *testing.T) {
	h := New()
	r, err := h.RunStrong(tinyBench("csv3"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteMissCurvesCSV(&sb, []*Result{r}); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+5 {
		t.Fatalf("rows = %d, want 6", len(recs))
	}
}
