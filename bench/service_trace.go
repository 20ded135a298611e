package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"gpuscale"
	"gpuscale/internal/config"
	"gpuscale/internal/engine"
	"gpuscale/internal/harness"
	"gpuscale/internal/server"
)

// The traced service runs attribute a request's round trip to the layers
// under it without touching the program. Two devices do it:
//
//   - the server's Eval seam: the traced svc-fresh daemon evaluates requests
//     with evaluator.eval below, a copy of internal/server's evaluator made
//     of the same public calls (engine.Intake, mrc, core, encoding/json)
//     with a span around each. Its spans lie inside the request they belong
//     to, and every body it produces must equal the shipped evaluator's.
//   - shadow calls: what the handler does before and after evaluating —
//     parse, canonicalise, analytic estimate, store lookup or write — cannot
//     be reached from outside, so the bench makes the same public calls with
//     the same inputs right after the round trip and records them as
//     children of the request. A request's self time (round trip minus
//     children) is then net/http, the handler and the client.
//
// Spans inside the program are a later issue; until then these are the
// numbers, and they are labelled as measured from outside.

// evaluator is the bench's copy of the server's built-in evaluator.
type evaluator struct {
	tr     *tracer
	intake *engine.Intake

	mu      sync.Mutex
	parents map[string][2]int        // canonical hash -> operation id, request span
	evalDur map[string]time.Duration // canonical hash -> time inside eval
	subDur  map[string]time.Duration // canonical hash -> Intake.Submit wall (simulate requests)
}

func newEvaluator(tr *tracer) *evaluator {
	return &evaluator{
		tr: tr,
		// The server's own intake settings: every core, 2 ms linger.
		intake:  engine.NewIntake(engine.IntakeOptions{Workers: runtime.NumCPU(), Linger: 2 * time.Millisecond}),
		parents: map[string][2]int{},
		evalDur: map[string]time.Duration{},
		subDur:  map[string]time.Duration{},
	}
}

func (e *evaluator) close() { e.intake.Close() }

// expect tells the evaluator which request span the next evaluation of hash
// belongs to.
func (e *evaluator) expect(hash string, op, parent int) {
	e.mu.Lock()
	e.parents[hash] = [2]int{op, parent}
	e.mu.Unlock()
}

func (e *evaluator) eval(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
	e.mu.Lock()
	pp, ok := e.parents[hash]
	e.mu.Unlock()
	if !ok {
		pp = [2]int{0, -1} // the warm-up request belongs to no operation
	}
	op := pp[0]
	t0 := time.Now()
	sp := e.tr.begin("server.eval", op, pp[1])
	body, err := e.evalOp(ctx, req, hash, op, sp)
	e.tr.end(sp)
	e.mu.Lock()
	e.evalDur[hash] = time.Since(t0)
	e.mu.Unlock()
	return body, err
}

func (e *evaluator) submit(ctx context.Context, job gpuscale.Job, op, parent int) (gpuscale.SimStats, time.Duration, error) {
	t0 := time.Now()
	sp := e.tr.begin("engine.intake", op, parent)
	res := e.intake.Submit(ctx, job)
	e.tr.end(sp)
	return res.Stats, time.Since(t0), res.Err
}

func (e *evaluator) encode(v any, op, parent int) ([]byte, error) {
	sp := e.tr.begin("server.encode", op, parent)
	defer e.tr.end(sp)
	return json.Marshal(v)
}

func (e *evaluator) sweep(w gpuscale.Workload, op, parent int) (gpuscale.Curve, error) {
	sp := e.tr.begin("mrc.sweep", op, parent)
	defer e.tr.end(sp)
	return gpuscale.MissRateCurve(w, gpuscale.StandardConfigs())
}

func (e *evaluator) evalOp(ctx context.Context, req gpuscale.Request, hash string, op, sp int) ([]byte, error) {
	switch req.Op {
	case gpuscale.OpSimulate:
		tgt, err := req.ResolveSimulation()
		if err != nil {
			return nil, err
		}
		if tgt.System == nil {
			return nil, errors.New("bench evaluator: MCM simulate requests are not in any workload")
		}
		var o gpuscale.SimOptions
		for _, fn := range tgt.Options {
			fn(&o)
		}
		st, wall, err := e.submit(ctx, gpuscale.Job{Config: *tgt.System, Kernels: []gpuscale.Workload{tgt.Workload}, Options: o}, op, sp)
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		e.subDur[hash] = wall
		e.mu.Unlock()
		return e.encode(server.SimulateResponse{RequestHash: hash, Op: req.Op, Config: tgt.System.Name, Workload: tgt.Workload.Name(), Stats: &st}, op, sp)

	case gpuscale.OpMRC:
		w, err := req.Workload.Resolve(0)
		if err != nil {
			return nil, err
		}
		curve, err := e.sweep(w, op, sp)
		if err != nil {
			return nil, err
		}
		return e.encode(server.MRCResponse{RequestHash: hash, Op: req.Op, Workload: w.Name(), Points: curve.Points}, op, sp)

	case gpuscale.OpPredict:
		if req.Target.Chiplets > 0 || req.Workload.Weak {
			return nil, errors.New("bench evaluator: MCM and weak predict requests are not in any workload")
		}
		return e.predict(ctx, req, hash, op, sp)
	}
	return nil, fmt.Errorf("bench evaluator: unknown op %q", req.Op)
}

// predict is the strong-scaling pipeline: the two scale models through the
// intake at once (so it can batch them), the miss-rate curve, Eqs. 1-4 and
// the baselines, encode.
func (e *evaluator) predict(ctx context.Context, req gpuscale.Request, hash string, op, sp int) ([]byte, error) {
	sizes := config.StandardSizes
	base := gpuscale.Baseline128()
	if req.Options.Uarch != nil {
		base.Uarch = *req.Options.Uarch
	}
	w, err := req.Workload.Resolve(0)
	if err != nil {
		return nil, err
	}
	var models [2]gpuscale.SimStats
	var errs [2]error
	var wg sync.WaitGroup
	for i, n := range sizes[:2] {
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			models[i], _, errs[i] = e.submit(ctx, gpuscale.NewJob(gpuscale.MustScale(base, n), w), op, sp)
		}(i, n)
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	small, large := models[0], models[1]
	curve, err := e.sweep(w, op, sp)
	if err != nil {
		return nil, err
	}

	psp := e.tr.begin("core.predict", op, sp)
	fsizes := make([]float64, len(sizes))
	for i, n := range sizes {
		fsizes[i] = float64(n)
	}
	in := gpuscale.PredictionInput{
		Sizes: fsizes, SmallIPC: small.IPC, LargeIPC: large.IPC,
		MPKI: curve.MPKIs(), FMemLarge: large.FMem, Mode: gpuscale.StrongScaling,
	}
	preds, err := gpuscale.Predict(in)
	if err != nil {
		return nil, err
	}
	baselines, err := gpuscale.FitBaselines([]gpuscale.RegressionPoint{{Size: fsizes[0], IPC: small.IPC}, {Size: fsizes[1], IPC: large.IPC}})
	if err != nil {
		return nil, err
	}
	points := make([]server.PredictionPoint, len(preds))
	for i, pr := range preds {
		bl := make(map[string]float64, len(baselines))
		for name, m := range baselines {
			bl[name] = m.Predict(pr.Size)
		}
		points[i] = server.PredictionPoint{Size: pr.Size, IPC: pr.IPC, Region: pr.Region.String(), Baselines: bl}
	}
	resp := server.PredictResponse{
		RequestHash: hash, Op: req.Op, Workload: req.Workload.Bench, Mode: "strong",
		ScaleModels:      []server.ScaleModelPoint{{Size: fsizes[0], IPC: small.IPC}, {Size: fsizes[1], IPC: large.IPC}},
		CorrectionFactor: gpuscale.CorrectionFactor(fsizes[0], small.IPC, fsizes[1], large.IPC),
		MPKI:             in.MPKI,
		Predictions:      points,
	}
	e.tr.end(psp)
	return e.encode(resp, op, sp)
}

// timed runs fn, records it as a closed child span and returns its duration.
func timed(tr *tracer, name string, op, parent int, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.add(name, op, parent, d)
	return d
}

// shadowFront repeats what the handler does before it touches the store:
// strict parse, then canonicalise and hash.
func shadowFront(tr *tracer, op, parent int, req *request) (time.Duration, error) {
	var wire gpuscale.Request
	var err error
	d := timed(tr, "gpuscale.parse", op, parent, func() { wire, err = gpuscale.ParseRequest(req.body) })
	if err != nil {
		return d, err
	}
	wire.Op = req.wire.Op
	d += timed(tr, "gpuscale.canon", op, parent, func() { _, _, err = gpuscale.Canonicalize(wire) })
	return d, err
}

var errAbsent = errors.New("bench: body is not in the mirror store")

// ---------------------------------------------------------------------------

func (w *freshWorkload) traced(ctx context.Context, p *params, r *result, tr *tracer) {
	// Reference pass: the daemon as shipped, no spans.
	order := p.rng().Perm(len(w.reqs))
	ref := w.pass(r, order)
	if r.Failed > 0 {
		return
	}
	reconcile(r, w.c, w.before, w.freshCounters())

	// Traced pass: a new daemon on an empty store, evaluating with the
	// bench's copy of the evaluator.
	ev := newEvaluator(tr)
	defer ev.close()
	w.tearDown()
	w.eval = ev.eval
	if err := w.setUp(ctx, p); err != nil {
		r.fail("set-up for the traced pass: %v", err)
		return
	}
	mirrorDir, err := storeDir(p)
	if err != nil {
		r.fail("mirror store: %v", err)
		return
	}
	defer os.RemoveAll(mirrorDir)
	mirror, err := harness.NewResultStore(mirrorDir, 0)
	if err != nil {
		r.fail("mirror store: %v", err)
		return
	}

	lat := make([]time.Duration, len(w.reqs))
	var overhead []float64
	ps := pathStats{}
	for _, i := range order {
		req, op := w.reqs[i], i+1
		r.Attempted++
		sp := tr.begin("request", op, -1)
		ev.expect(req.key, op, sp)
		a, err := w.c.post(req)
		tr.end(sp)
		if err != nil || a.status != http.StatusOK {
			r.Failed++
			r.fail("%s %s: status %d, %v", req.path, req.body, a.status, err)
			continue
		}
		if a.cache != "computed" || !bytes.Equal(a.body, req.want) {
			r.fail("%s %s: X-Cache %q; body of the bench's evaluator equals the server's: %v", req.path, req.body, a.cache, bytes.Equal(a.body, req.want))
		}
		lat[i] = a.latency
		ps.add(a)
		children, err := shadowFront(tr, op, sp, req)
		if err != nil {
			r.fail("shadow parse of %s: %v", req.body, err)
		}
		// The store's write path: settle in memory, temp file, rename.
		children += timed(tr, "harness.store.put", op, sp, func() {
			_, _, err = mirror.Do(ctx, req.key, func() ([]byte, error) { return a.body, nil })
		})
		if err != nil {
			r.fail("mirror store put: %v", err)
		}
		overhead = append(overhead, us(a.latency-ev.evalDur[req.key]-children))
	}
	if r.Failed > 0 {
		return
	}

	// Intake.Submit against a direct run of the same job, on the simulate
	// requests (one job each, so nothing else is in the difference but the
	// linger, the dispatch and the worker hand-off).
	var waits []float64
	for i, req := range w.reqs {
		if req.wire.Op != gpuscale.OpSimulate {
			continue
		}
		tgt, err := req.wire.ResolveSimulation()
		if err != nil {
			r.fail("resolving %s: %v", req.body, err)
			continue
		}
		d := timed(tr, "gpu.simulate (direct)", i+1, -1, func() {
			_, err = gpuscale.SimulateContext(ctx, *tgt.System, tgt.Workload, tgt.Options...)
		})
		if err != nil {
			r.fail("direct run of %s: %v", req.body, err)
			continue
		}
		waits = append(waits, ms(ev.subDur[req.key]-d))
	}

	layers := tr.selfTimes()
	var refSum, trSum time.Duration
	for i := range lat {
		refSum += ref[i]
		trSum += lat[i]
	}
	r.set("trace_overhead_pct", 100*(trSum.Seconds()/refSum.Seconds()-1))
	r.set("gpuscale.parse_us", us(p50Of(layers, "gpuscale.parse")))
	r.set("gpuscale.canon_us", us(p50Of(layers, "gpuscale.canon")))
	r.set("harness.store_put_us", us(p50Of(layers, "harness.store.put")))
	r.set("mrc.sweep_ms", ms(p50Of(layers, "mrc.sweep")))
	r.set("core.predict_us", us(p50Of(layers, "core.predict")))
	r.set("server.encode_us", us(p50Of(layers, "server.encode")))
	r.set("server.http_overhead_us", median(overhead))
	r.set("path.computed_p50_ms", ms(medianDuration(ps.byCache("computed"))))
	if len(waits) > 0 {
		r.set("engine.batch_wait_ms", median(waits))
	}
	r.note("%d requests per pass: one reference pass on the shipped evaluator, one traced pass on the bench's copy (bodies byte-identical); engine.batch_wait_ms over %d simulate requests", len(w.reqs), len(waits))
	ps.report(r)
}

// ---------------------------------------------------------------------------

// hotTracedRequests is the length of svc-hot's traced pass: enough requests
// for a stable median on every path, few enough to keep the spans in memory.
const hotTracedRequests = 20000

func (w *hotWorkload) traced(ctx context.Context, p *params, r *result, tr *tracer) {
	// Reference: the loop as the end-to-end run drives it, for a fifth of
	// the time.
	limit := time.Duration(p.seconds / 5 * float64(time.Second))
	tallies, _ := w.load(p.seed, func(_ int, el time.Duration) bool { return el >= limit }, nil)
	refLat, _ := w.fold(r, tallies)
	var err error
	if w.before, err = w.c.counters(); err != nil {
		r.fail("scraping /metrics: %v", err)
		return
	}

	// The mirror store reads the daemon's own directory with the daemon's
	// memory budget, so its hits split into memory and disk as the
	// daemon's do.
	mirror, err := harness.NewResultStore(w.dir, w.memoBytes)
	if err != nil {
		r.fail("mirror store: %v", err)
		return
	}
	absent := func() ([]byte, error) { return nil, errAbsent }
	lookup := func(op, sp int, key string) time.Duration {
		var src harness.StoreSource
		var err error
		t0 := time.Now()
		_, src, err = mirror.Do(ctx, key, absent)
		d := time.Since(t0)
		if err != nil {
			src = "miss"
		}
		tr.add("harness.store."+string(src), op, sp, d)
		return d
	}

	var mu sync.Mutex
	var overhead []float64
	var shadowErr error
	after := func(op int, req *request, a answer) {
		sp := tr.add("request", op, -1, a.latency)
		children, err := shadowFront(tr, op, sp, req)
		switch {
		case req.wire.Options.Tier == gpuscale.TierAuto && req.tier == gpuscale.TierCycle:
			// auto finds the settled cycle body and stops there.
			children += lookup(op, sp, req.key)
		case req.tier == gpuscale.TierAnalytic:
			children += timed(tr, "analytic.predict", op, sp, func() {
				if _, perr := gpuscale.PredictAnalytic(req.wire); perr != nil {
					err = perr
				}
			})
			children += lookup(op, sp, req.key)
		default:
			children += lookup(op, sp, req.key)
		}
		mu.Lock()
		overhead = append(overhead, us(a.latency-children))
		if err != nil && shadowErr == nil {
			shadowErr = err
		}
		mu.Unlock()
	}
	n := hotTracedRequests
	if p.toy {
		n = 400
	}
	tallies, _ = w.load(p.seed+1, func(sent int, _ time.Duration) bool { return sent >= n/hotClients }, after)
	lat, paths := w.fold(r, tallies)
	if shadowErr != nil {
		r.fail("shadow call: %v", shadowErr)
	}
	if len(lat) == 0 || len(refLat) == 0 {
		return
	}

	layers := tr.selfTimes()
	xs := durationsMS(lat)
	r.set("trace_overhead_pct", 100*(median(xs)/median(durationsMS(refLat))-1))
	r.set("gpuscale.parse_us", us(p50Of(layers, "gpuscale.parse")))
	r.set("gpuscale.canon_us", us(p50Of(layers, "gpuscale.canon")))
	r.set("analytic.predict_us", us(p50Of(layers, "analytic.predict")))
	r.set("harness.store_hit_mem_us", us(p50Of(layers, "harness.store.memory")))
	r.set("harness.store_hit_disk_us", us(p50Of(layers, "harness.store.disk")))
	r.set("server.http_overhead_us", median(overhead))
	r.set("path.memory_p50_us", us(medianDuration(paths.byCache("memory"))))
	r.set("path.disk_p50_us", us(medianDuration(paths.byCache("disk"))))
	r.set("p99_ms", percentile(xs, 99))
	r.note("%d reference requests without spans, then %d with a span and shadow calls each; trace_overhead_pct compares the round-trip medians", len(refLat), len(lat))
	paths.report(r)
}
