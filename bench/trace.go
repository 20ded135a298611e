package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the bench around the
// call (nothing inside the program under test is instrumented). Spans of
// one operation share Op; Parent is the index of the span that caused this
// one, or -1.
type span struct {
	Name       string
	Op         int
	Parent     int
	Start, End time.Duration // since the tracer was made
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records an already-measured call as a closed span ending now and
// returns its index.
func (t *tracer) add(name string, op, parent int, d time.Duration) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now - d, End: now})
	return len(t.spans) - 1
}

// layerTime is the total and self time of every span of one name.
type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
	durs        []time.Duration
}

// selfTimes folds the spans by name. A span's self time is its duration
// minus what its children cover; children that ran concurrently (the two
// scale-model simulations of a predict) are merged before subtracting, and
// a child's cover is capped at the parent's duration.
func (t *tracer) selfTimes() []layerTime {
	if t == nil {
		return nil
	}
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := make(map[string]*layerTime)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		cover := t.covered(children[i])
		if cover > d {
			cover = d
		}
		lt.Count++
		lt.Total += d
		lt.Self += d - cover
		lt.durs = append(lt.durs, d)
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the given spans' intervals.
func (t *tracer) covered(idx []int) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(idx))
	for _, i := range idx {
		if s := t.spans[i]; s.End >= 0 {
			iv = append(iv, [2]time.Duration{s.Start, s.End})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi time.Duration
	hi = -1
	for _, x := range iv {
		lo := x[0]
		if lo < hi {
			lo = hi
		}
		if x[1] > lo {
			total += x[1] - lo
			hi = x[1]
		}
	}
	return total
}

// p50 is the median duration of the spans named name (0 if there are none).
func p50Of(layers []layerTime, name string) time.Duration {
	for _, lt := range layers {
		if lt.Name == name {
			return medianDuration(lt.durs)
		}
	}
	return 0
}

// maxTraceEvents caps the trace file: a svc-hot pass records hundreds of
// thousands of spans, and a viewer needs a few thousand operations, not
// all of them. Self times are always computed over every span.
const maxTraceEvents = 50000

// write stores the spans as Chrome trace_event JSON (loadable in
// chrome://tracing or ui.perfetto.dev): one complete ("X") event per span,
// one track per operation lane.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	n := 0
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		if n == maxTraceEvents {
			break
		}
		ev := map[string]any{
			"name": s.Name, "ph": "X", "pid": 1, "tid": s.Op % 8,
			"ts": us(s.Start), "dur": us(s.End - s.Start),
			"args": map[string]int{"span": i, "op": s.Op, "parent": s.Parent},
		}
		buf, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return err
		}
		if n > 0 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
		w.Write(buf)
		n++
	}
	fmt.Fprintf(w, "\n],\"otherData\":{\"spans_recorded\":%d,\"spans_written\":%d}}\n", len(t.spans), n)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
