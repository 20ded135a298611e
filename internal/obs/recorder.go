package obs

import "sync"

// DefaultSampleInterval is the sampling cadence (in simulated cycles) used
// when a recorder is attached without an explicit interval.
const DefaultSampleInterval = 8192

// defaultMaxEvents bounds the in-memory event buffer; beyond it events are
// dropped (and counted) rather than growing without limit on long runs.
const defaultMaxEvents = 1 << 18

// Event is one cycle-stamped trace event in the Chrome trace_event JSON
// schema (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// TS carries the simulated cycle, Pid the stream (one per simulation), and
// Tid a component lane within the stream. Phase "X" is a complete span (with
// Dur), "i" an instant, "C" a counter sample, "M" stream metadata.
type Event struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	Pid   int64          `json:"pid"`
	Tid   int64          `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
	Scope string         `json:"s,omitempty"` // instant-event scope ("p" = process)
}

// Sample is one interval-sampler snapshot: a named time series bundle taken
// at a simulated cycle on one stream.
type Sample struct {
	Stream string             `json:"stream"`
	Cycle  int64              `json:"cycle"`
	Values map[string]float64 `json:"values"`
}

// Recorder bundles the three observability facilities — metrics registry,
// event trace, sample series — behind one handle that simulators accept.
// A nil *Recorder disables everything at the cost of nil-checks; a non-nil
// Recorder is safe for concurrent use by parallel simulations.
type Recorder struct {
	reg         *Registry
	sampleEvery int64
	maxEvents   int

	mu         sync.Mutex
	events     []Event
	samples    []Sample
	dropped    uint64
	nextStream int64
}

// Option configures a Recorder at construction.
type Option func(*Recorder)

// SampleEvery sets the default sampling interval in simulated cycles for
// simulations observed by this recorder (they may override it per run).
// n <= 0 keeps DefaultSampleInterval.
func SampleEvery(n int64) Option {
	return func(r *Recorder) {
		if n > 0 {
			r.sampleEvery = n
		}
	}
}

// New returns an enabled Recorder.
func New(opts ...Option) *Recorder {
	r := &Recorder{
		reg:         NewRegistry(),
		sampleEvery: DefaultSampleInterval,
		maxEvents:   defaultMaxEvents,
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Enabled reports whether the recorder is non-nil, i.e. observing.
func (r *Recorder) Enabled() bool { return r != nil }

// Registry returns the recorder's metrics registry; nil on a nil receiver.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Scope returns a metrics namespace in the recorder's registry; nil on a
// nil receiver.
func (r *Recorder) Scope(name string) *Scope { return r.Registry().Scope(name) }

// SampleInterval returns the default sampling cadence in cycles; 0 on a nil
// receiver (sampling disabled).
func (r *Recorder) SampleInterval() int64 {
	if r == nil {
		return 0
	}
	return r.sampleEvery
}

// DroppedEvents returns how many events were discarded by the event-buffer
// cap (2^18 events).
func (r *Recorder) DroppedEvents() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns a copy of the recorded events, in recording order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Samples returns a copy of the recorded interval samples.
func (r *Recorder) Samples() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, len(r.samples))
	copy(out, r.samples)
	return out
}

// record appends ev unless the buffer is full.
func (r *Recorder) record(ev Event) {
	r.mu.Lock()
	if len(r.events) >= r.maxEvents {
		r.dropped++
	} else {
		r.events = append(r.events, ev)
	}
	r.mu.Unlock()
}

// Stream registers a new event stream — one simulation's lane in the trace,
// rendered as its own process by chrome://tracing and Perfetto — and emits
// its process_name metadata event. Nil on a nil receiver.
func (r *Recorder) Stream(name string) *Stream {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.nextStream++
	id := r.nextStream
	r.mu.Unlock()
	st := &Stream{rec: r, id: id, name: name}
	r.record(Event{
		Name:  "process_name",
		Phase: "M",
		Pid:   id,
		Args:  map[string]any{"name": name},
	})
	return st
}

// Stream is one simulation's lane in a recorder's event trace. All methods
// are no-ops on a nil receiver.
type Stream struct {
	rec  *Recorder
	id   int64
	name string
}

// ID returns the stream's pid in the trace; 0 on a nil receiver.
func (st *Stream) ID() int64 {
	if st == nil {
		return 0
	}
	return st.id
}

// Name returns the stream's label; "" on a nil receiver.
func (st *Stream) Name() string {
	if st == nil {
		return ""
	}
	return st.name
}

// Instant records an instantaneous event at the given cycle.
func (st *Stream) Instant(cycle int64, cat, name string) {
	if st == nil {
		return
	}
	st.rec.record(Event{Name: name, Cat: cat, Phase: "i", TS: cycle, Pid: st.id, Scope: "p"})
}

// Span records a complete event covering [start, end] cycles.
func (st *Stream) Span(start, end int64, cat, name string) {
	if st == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	st.rec.record(Event{Name: name, Cat: cat, Phase: "X", TS: start, Dur: dur, Pid: st.id})
}

// Sample records one interval-sampler snapshot: it stores the Sample time
// series point and emits one counter ("C") trace event per series so the
// values plot in chrome://tracing / Perfetto. The values map is retained;
// callers must not mutate it afterwards.
func (st *Stream) Sample(cycle int64, values map[string]float64) {
	if st == nil {
		return
	}
	r := st.rec
	r.mu.Lock()
	r.samples = append(r.samples, Sample{Stream: st.name, Cycle: cycle, Values: values})
	r.mu.Unlock()
	for name, v := range values {
		r.record(Event{
			Name:  name,
			Cat:   "sample",
			Phase: "C",
			TS:    cycle,
			Pid:   st.id,
			Args:  map[string]any{"value": v},
		})
	}
}
