package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a/b")
	c2 := r.Counter("a/b")
	if c1 != c2 {
		t.Fatal("Counter did not return the same instance for the same name")
	}
	c1.Add(3)
	c2.Inc()
	if got := r.Counter("a/b").Value(); got != 4 {
		t.Fatalf("counter value = %d, want 4", got)
	}
	g := r.Gauge("a/g")
	g.Set(1.5)
	if r.Gauge("a/g").Value() != 1.5 {
		t.Fatal("gauge value lost")
	}
	h1 := r.Histogram("a/h", []float64{1, 2})
	h2 := r.Histogram("a/h", []float64{99}) // bounds ignored on reuse
	if h1 != h2 {
		t.Fatal("Histogram did not return the same instance for the same name")
	}
}

func TestScopeNamespacing(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope("gpu-8sm/dct").Sub("llc")
	sc.Counter("misses").Add(7)
	if got := r.Counter("gpu-8sm/dct/llc/misses").Value(); got != 7 {
		t.Fatalf("scoped counter = %d, want 7", got)
	}
	if sc.Name() != "gpu-8sm/dct/llc" {
		t.Fatalf("scope name = %q", sc.Name())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{10, 100})
	for _, v := range []float64{5, 10, 50, 1000} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []uint64{2, 1, 1} // <=10: {5,10}; <=100: {50}; overflow: {1000}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (snapshot %+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 4 || s.Sum != 1065 {
		t.Fatalf("count/sum = %d/%v, want 4/1065", s.Count, s.Sum)
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("Reset did not clear totals")
	}
}

// TestNilSafety drives every handle through a nil pointer: nothing may
// panic, and reads return zero values.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	var reg *Registry
	var sc *Scope
	var c *Counter
	var g *Gauge
	var h *Histogram
	var st *Stream

	c.Add(1)
	c.Inc()
	c.Store(5)
	g.Set(2)
	h.Observe(3)
	h.Reset()
	st.Instant(0, "a", "b")
	st.Span(0, 10, "a", "b")
	st.Sample(0, map[string]float64{"x": 1})

	if r.Enabled() || r.Registry() != nil || r.Scope("x") != nil || r.Stream("x") != nil {
		t.Fatal("nil recorder handed out non-nil handles")
	}
	if r.SampleInterval() != 0 || r.DroppedEvents() != 0 || r.Events() != nil || r.Samples() != nil {
		t.Fatal("nil recorder reported non-zero state")
	}
	if reg.Counter("x") != nil || reg.Gauge("x") != nil || reg.Histogram("x", nil) != nil || reg.Scope("x") != nil {
		t.Fatal("nil registry handed out non-nil handles")
	}
	if sc.Counter("x") != nil || sc.Gauge("x") != nil || sc.Histogram("x", nil) != nil || sc.Sub("x") != nil {
		t.Fatal("nil scope handed out non-nil handles")
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || st.ID() != 0 || st.Name() != "" || sc.Name() != "" {
		t.Fatal("nil handles returned non-zero values")
	}
	snap := reg.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestNilHooksNoAllocs is the package-local half of the zero-cost contract:
// every hook a simulator calls on the hot path must allocate nothing when
// no recorder is attached. (The repository-root bench_test.go repeats this
// guard through the public API.)
func TestNilHooksNoAllocs(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var st *Stream
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		c.Inc()
		g.Set(1)
		h.Observe(1)
		st.Instant(1, "cat", "name")
		st.Span(0, 1, "cat", "name")
	})
	if allocs != 0 {
		t.Fatalf("nil obs hooks allocated %v times per run, want 0", allocs)
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := New()
	c := r.Scope("x").Counter("n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("concurrent adds lost updates: %d, want 8000", got)
	}
}

func TestConcurrentStreams(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := r.Stream("sim")
			for j := int64(0); j < 50; j++ {
				st.Instant(j, "t", "e")
				st.Sample(j, map[string]float64{"v": float64(j)})
			}
		}()
	}
	wg.Wait()
	// 8 metadata + 8*50 instants + 8*50 counter events.
	if got := len(r.Events()); got != 8+800 {
		t.Fatalf("events = %d, want 808", got)
	}
	if got := len(r.Samples()); got != 400 {
		t.Fatalf("samples = %d, want 400", got)
	}
}

func TestMaxEventsCap(t *testing.T) {
	r := New()
	r.maxEvents = 10
	st := r.Stream("s") // 1 metadata event
	for i := int64(0); i < 20; i++ {
		st.Instant(i, "t", "e")
	}
	if got := len(r.Events()); got != 10 {
		t.Fatalf("events = %d, want 10 (capped)", got)
	}
	if got := r.DroppedEvents(); got != 11 {
		t.Fatalf("dropped = %d, want 11", got)
	}
}

func TestWriteTraceShape(t *testing.T) {
	r := New()
	st := r.Stream("kernel-run")
	st.Span(100, 200, "kernel", "k0")
	st.Instant(150, "sim", "warmup-reset")
	st.Sample(160, map[string]float64{"occupancy": 0.5})

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) != 4 {
		t.Fatalf("traceEvents = %d, want 4", len(tf.TraceEvents))
	}
	last := int64(-1)
	sawMeta := false
	for i, ev := range tf.TraceEvents {
		ts := int64(ev["ts"].(float64))
		ph := ev["ph"].(string)
		if ph == "M" {
			sawMeta = true
			if i != 0 {
				t.Fatalf("metadata event not first (index %d)", i)
			}
			continue
		}
		if ts < last {
			t.Fatalf("timestamps not monotonic at index %d: %d < %d", i, ts, last)
		}
		last = ts
	}
	if !sawMeta {
		t.Fatal("no process_name metadata event")
	}
}

func TestWriteJSONLAndMetrics(t *testing.T) {
	r := New()
	st := r.Stream("s")
	st.Span(0, 10, "kernel", "k0")
	r.Scope("s").Counter("llc/misses").Store(42)
	r.Scope("s").Gauge("noc/util").Set(0.25)
	r.Scope("s").Histogram("lat", LatencyBuckets).Observe(100)

	var lines bytes.Buffer
	if err := r.WriteJSONL(&lines); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(strings.TrimSpace(lines.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("JSONL line %q invalid: %v", line, err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("JSONL lines = %d, want 2", n)
	}

	var mbuf bytes.Buffer
	if err := r.WriteMetrics(&mbuf); err != nil {
		t.Fatal(err)
	}
	var dump MetricsDump
	if err := json.Unmarshal(mbuf.Bytes(), &dump); err != nil {
		t.Fatalf("metrics dump invalid: %v", err)
	}
	if dump.Metrics.Counters["s/llc/misses"] != 42 {
		t.Fatalf("counter missing from dump: %+v", dump.Metrics.Counters)
	}
	if dump.Metrics.Gauges["s/noc/util"] != 0.25 {
		t.Fatalf("gauge missing from dump: %+v", dump.Metrics.Gauges)
	}
	if h, ok := dump.Metrics.Histograms["s/lat"]; !ok || h.Count != 1 {
		t.Fatalf("histogram missing from dump: %+v", dump.Metrics.Histograms)
	}
}

func TestNilRecorderWriters(t *testing.T) {
	var r *Recorder
	var tbuf, mbuf, lbuf bytes.Buffer
	if err := r.WriteTrace(&tbuf); err != nil {
		t.Fatal(err)
	}
	var tf map[string]any
	if err := json.Unmarshal(tbuf.Bytes(), &tf); err != nil {
		t.Fatalf("nil trace invalid JSON: %v", err)
	}
	if err := r.WriteMetrics(&mbuf); err != nil {
		t.Fatal(err)
	}
	var md map[string]any
	if err := json.Unmarshal(mbuf.Bytes(), &md); err != nil {
		t.Fatalf("nil metrics invalid JSON: %v", err)
	}
	if err := r.WriteJSONL(&lbuf); err != nil {
		t.Fatal(err)
	}
	if lbuf.Len() != 0 {
		t.Fatalf("nil JSONL wrote %d bytes", lbuf.Len())
	}
}
