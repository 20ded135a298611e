package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"gpuscale"
	"gpuscale/internal/server"
)

// daemon is an in-process gpuscaled: internal/server behind net/http on a
// loopback listener, which is everything cmd/gpuscaled adds to the package.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func boot(opt server.Options) (*daemon, error) {
	opt.Workers = runtime.NumCPU()
	srv, err := server.New(opt)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln) // returns when stop shuts the server down
	}()
	return d, nil
}

// stop drains the HTTP server, waits for its goroutine and closes the
// intake.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.done
	d.srv.Close()
}

// request is one generated service operation.
type request struct {
	path string
	wire gpuscale.Request
	body []byte
	tier string // X-Tier the answer must carry
	sims int    // simulations the server starts to compute it
	key  string // the result-store key the server files the answer under
	want []byte // the body the answer must equal, once known
}

func newRequest(wire gpuscale.Request, tier string, sims int) *request {
	path := "/v1/" + wire.Op
	wire.Op = "" // the endpoint path is authoritative
	body, err := json.Marshal(wire)
	if err != nil {
		panic(err) // a struct of strings and numbers
	}
	wire.Op = path[len("/v1/"):]
	_, key, err := gpuscale.Canonicalize(wire)
	if err != nil {
		panic(err) // the request lists are constants of this package
	}
	if tier == gpuscale.TierAnalytic {
		key = gpuscale.AnalyticCacheKey(key)
	}
	return &request{path: path, wire: wire, body: body, tier: tier, sims: sims, key: key}
}

func predictReq(bench string, weak bool, tier string, v *gpuscale.UarchVariant) gpuscale.Request {
	return gpuscale.Request{Op: gpuscale.OpPredict,
		Workload: gpuscale.WorkloadSpec{Bench: bench, Weak: weak},
		Options:  gpuscale.RequestOptions{Tier: tier, Uarch: v}}
}

func simulateReq(bench string, sms int, v *gpuscale.UarchVariant) gpuscale.Request {
	return gpuscale.Request{Op: gpuscale.OpSimulate,
		Target:   gpuscale.TargetSpec{SMs: sms},
		Workload: gpuscale.WorkloadSpec{Bench: bench},
		Options:  gpuscale.RequestOptions{Uarch: v}}
}

func mrcReq(bench string) gpuscale.Request {
	return gpuscale.Request{Op: gpuscale.OpMRC, Workload: gpuscale.WorkloadSpec{Bench: bench}}
}

// answer is what came back for one request.
type answer struct {
	status      int
	cache, tier string
	body        []byte
	latency     time.Duration
}

// client is one closed-loop caller: it sends its next request only after
// the previous answer is in. All clients of a workload share one transport
// capped at one connection each.
type client struct {
	http *http.Client
	url  string
}

func newClient(url string, conns int) *client {
	return &client{url: url, http: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) post(req *request) (answer, error) {
	t0 := time.Now()
	resp, err := c.http.Post(c.url+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return answer{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return answer{}, err
	}
	return answer{
		status:  resp.StatusCode,
		cache:   resp.Header.Get("X-Cache"),
		tier:    resp.Header.Get("X-Tier"),
		body:    body,
		latency: time.Since(t0),
	}, nil
}

// counters scrapes /metrics and returns every plain counter and gauge line.
func (c *client) counters() (map[string]float64, error) {
	resp, err := c.http.Get(c.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}

// reconcile holds the server's own counters to what the client sent and
// saw: each named counter must have grown by exactly want since before.
func reconcile(r *result, c *client, before map[string]float64, want map[string]int) {
	after, err := c.counters()
	if err != nil {
		r.fail("scraping /metrics: %v", err)
		return
	}
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if got := int(after[n] - before[n]); got != want[n] {
			r.fail("/metrics: %s grew by %d, the request list says %d", n, got, want[n])
		}
	}
	r.note("output check: %d /metrics counters reconcile with the request list", len(want))
}

// pathStats folds answers by X-Cache x X-Tier path.
type pathStats map[string][]time.Duration

func (ps pathStats) add(a answer) {
	k := a.cache + "/" + a.tier
	ps[k] = append(ps[k], a.latency)
}

func (ps pathStats) merge(o pathStats) {
	for k, v := range o {
		ps[k] = append(ps[k], v...)
	}
}

// byCache returns every latency answered from one X-Cache source.
func (ps pathStats) byCache(cache string) []time.Duration {
	var out []time.Duration
	for k, v := range ps {
		if strings.HasPrefix(k, cache+"/") {
			out = append(out, v...)
		}
	}
	return out
}

func (ps pathStats) report(r *result) {
	keys := make([]string, 0, len(ps))
	for k := range ps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	r.table("answers per X-Cache/X-Tier path", []string{"count", "p50 ms"}, func(add func(string, ...float64)) {
		for _, k := range keys {
			add(k, float64(len(ps[k])), ms(medianDuration(ps[k])))
		}
	})
}

// storeDir makes a fresh, empty store directory inside the checkout.
func storeDir(p *params) (string, error) {
	if err := os.MkdirAll(p.outDir(), 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(p.outDir(), "store-")
}

// checkEvalLocal holds a request's served body to server.EvalLocal, the
// evaluator the CLIs use without a daemon.
func checkEvalLocal(ctx context.Context, r *result, req *request) {
	body, _, err := server.EvalLocal(ctx, req.wire, runtime.NumCPU(), 0)
	if err != nil {
		r.fail("EvalLocal %s %s: %v", req.path, req.body, err)
		return
	}
	if !bytes.Equal(body, req.want) {
		r.fail("%s %s: served body differs from server.EvalLocal", req.path, req.body)
	}
}

func variant(spec string) *gpuscale.UarchVariant {
	v, err := gpuscale.ParseUarch(spec)
	if err != nil {
		panic(err) // the specs are constants of this file
	}
	return &v
}

// ---------------------------------------------------------------------------
// svc-fresh: time to a prediction nobody has asked for before.

// freshRequests is svc-fresh's fixed list: 40 distinct cycle-tier requests,
// so the 75th percentile has ten samples beyond it.
func freshRequests(toy bool) []*request {
	cycle := gpuscale.TierCycle
	if toy {
		return []*request{
			newRequest(mrcReq("gemm"), cycle, 0),
			newRequest(simulateReq("ht", 8, nil), cycle, 1),
			newRequest(predictReq("ht", false, gpuscale.TierAuto, variant("lrr")), cycle, 2),
		}
	}
	var reqs []*request
	for _, b := range []string{"ht", "va", "gemm", "2mm", "bs", "st", "as"} {
		reqs = append(reqs, newRequest(predictReq(b, false, "", nil), cycle, 2))
	}
	// tier:auto on a non-default microarchitecture: the analytic tier is not
	// confident there, so the request escalates to the cycle pipeline.
	for _, e := range []struct{ bench, uarch string }{{"ht", "lrr"}, {"gemm", "two-level"}, {"2mm", "sectored"}, {"st", "iw=2"}} {
		reqs = append(reqs, newRequest(predictReq(e.bench, false, gpuscale.TierAuto, variant(e.uarch)), cycle, 2))
	}
	for _, s := range []struct {
		bench string
		sms   int
		uarch string
	}{
		{"ht", 8, ""}, {"ht", 16, ""}, {"ht", 32, ""}, {"va", 8, ""}, {"va", 16, ""}, {"va", 32, ""},
		{"gemm", 8, ""}, {"gemm", 16, ""}, {"2mm", 8, ""}, {"2mm", 32, ""},
		{"st", 8, "sectored"}, {"va", 8, "sectored"}, {"as", 16, "two-level"}, {"ht", 16, "two-level"}, {"gemm", 32, "deflect"},
	} {
		var v *gpuscale.UarchVariant
		if s.uarch != "" {
			v = variant(s.uarch)
		}
		reqs = append(reqs, newRequest(simulateReq(s.bench, s.sms, v), cycle, 1))
	}
	for _, b := range []string{"ht", "va", "gemm", "2mm", "st", "as", "bs", "at", "gr", "fwt", "bp", "lu", "pf", "sr"} {
		reqs = append(reqs, newRequest(mrcReq(b), cycle, 0))
	}
	return reqs
}

// warmUpRequest is distinct from every measured request (max_cycles is part
// of the canonical form), so the measured ones stay uncached.
func warmUpRequest() *request {
	wire := simulateReq("ht", 8, nil)
	wire.Options.MaxCycles = 1 << 40
	return newRequest(wire, gpuscale.TierCycle, 1)
}

type freshWorkload struct {
	dir    string
	d      *daemon
	c      *client
	reqs   []*request
	before map[string]float64 // /metrics after the warm-up
	eval   server.Evaluator   // traced runs put the bench's evaluator in
}

func (w *freshWorkload) setUp(ctx context.Context, p *params) error {
	if w.reqs == nil { // a second set-up in one run keeps the bodies the first one saw
		w.reqs = freshRequests(p.toy)
	}
	dir, err := storeDir(p)
	if err != nil {
		return err
	}
	w.dir = dir
	return w.bootOn(dir)
}

// bootOn starts a daemon on dir, warms it up and scrapes its counters.
func (w *freshWorkload) bootOn(dir string) error {
	d, err := boot(server.Options{StoreDir: dir, Eval: w.eval})
	if err != nil {
		return err
	}
	w.d, w.c = d, newClient(d.url, 1)
	a, err := w.c.post(warmUpRequest())
	if err != nil {
		return err
	}
	if a.status != http.StatusOK {
		return fmt.Errorf("warm-up request: status %d: %s", a.status, a.body)
	}
	w.before, err = w.c.counters()
	return err
}

func (w *freshWorkload) halt() {
	if w.c != nil {
		w.c.close()
		w.c = nil
	}
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
}

func (w *freshWorkload) tearDown() {
	w.halt()
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// pass sends the list once in the given order, one request at a time, and
// holds every answer to what svc-fresh promises: 200, computed, cycle tier.
// It returns the latencies in list order.
func (w *freshWorkload) pass(r *result, order []int) []time.Duration {
	lat := make([]time.Duration, len(w.reqs))
	for _, i := range order {
		req := w.reqs[i]
		r.Attempted++
		a, err := w.c.post(req)
		if err != nil || a.status != http.StatusOK {
			r.Failed++
			r.fail("%s %s: status %d, %v", req.path, req.body, a.status, err)
			continue
		}
		if a.cache != "computed" || a.tier != req.tier {
			r.fail("%s %s: X-Cache %q X-Tier %q, want computed %s", req.path, req.body, a.cache, a.tier, req.tier)
		}
		if req.want == nil {
			req.want = a.body
		} else if !bytes.Equal(a.body, req.want) {
			r.fail("%s %s: computed body differs from the first computed body", req.path, req.body)
		}
		lat[i] = a.latency
	}
	return lat
}

// freshCounters is what one pass of the list must add to /metrics.
func (w *freshWorkload) freshCounters() map[string]int {
	want := map[string]int{
		"server_cache_misses": len(w.reqs), "server_cache_hits_memory": 0, "server_cache_hits_disk": 0,
		"server_cache_coalesced": 0, "server_errors": 0, "server_backpressure_rejected": 0,
		"server_tier_cycle": len(w.reqs), "server_tier_analytic": 0,
	}
	for _, req := range w.reqs {
		want["server_requests_"+req.wire.Op]++
		want["server_sims_started"] += req.sims
		if req.wire.Options.Tier == gpuscale.TierAuto {
			want["server_tier_escalated"]++
		}
	}
	return want
}

// replay sends the list again and wants every body back byte for byte from
// the given cache level.
func (w *freshWorkload) replay(r *result, cache string) {
	for _, req := range w.reqs {
		a, err := w.c.post(req)
		if err != nil || a.status != http.StatusOK {
			r.fail("%s replay of %s %s: status %d, %v", cache, req.path, req.body, a.status, err)
			continue
		}
		if a.cache != cache || !bytes.Equal(a.body, req.want) {
			r.fail("%s %s: X-Cache %q (want %s), body identical to computed: %v", req.path, req.body, a.cache, cache, bytes.Equal(a.body, req.want))
		}
	}
}

// checkStore replays the list from memory, then from disk after a restart
// on the same directory, and holds the cheapest tenth of the bodies to EvalLocal.
func (w *freshWorkload) checkStore(ctx context.Context, r *result, lat []time.Duration) {
	w.replay(r, "memory")
	w.halt()
	if err := w.bootOn(w.dir); err != nil {
		r.fail("restart on the populated store: %v", err)
		return
	}
	w.replay(r, "disk")
	order := make([]int, len(w.reqs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return lat[order[a]] < lat[order[b]] })
	n := (len(order) + 9) / 10 // a tenth of the list: re-evaluating costs what evaluating did
	for _, i := range order[:n] {
		checkEvalLocal(ctx, r, w.reqs[i])
	}
	r.note("output check: %d bodies byte-identical across computed, memory and disk; the %d cheapest also to server.EvalLocal", len(w.reqs), n)
}

func (w *freshWorkload) measure(ctx context.Context, p *params, r *result) {
	rng := p.rng()
	perReq := make([][]time.Duration, len(w.reqs))
	var last []time.Duration
	start := time.Now()
	for pass := 0; ; pass++ {
		t0 := time.Now()
		last = w.pass(r, rng.Perm(len(w.reqs)))
		took := time.Since(t0)
		if r.Failed > 0 {
			return
		}
		for i, d := range last {
			perReq[i] = append(perReq[i], d)
		}
		reconcile(r, w.c, w.before, w.freshCounters())
		// Another pass needs another empty store. Start one only if it
		// should end within a quarter over the time asked for.
		if time.Since(start)+took > time.Duration(1.25*p.seconds*float64(time.Second)) {
			r.note("%d pass(es) of %d requests, closed loop, 1 client, %d worker(s); the last pass took %.2f s", pass+1, len(w.reqs), runtime.NumCPU(), took.Seconds())
			break
		}
		w.tearDown()
		if err := w.setUp(ctx, p); err != nil {
			r.fail("set-up for pass %d: %v", pass+2, err)
			return
		}
	}
	w.checkStore(ctx, r, last)

	med := make([]time.Duration, len(perReq))
	var sum time.Duration
	for i, ds := range perReq {
		med[i] = medianDuration(ds)
		sum += med[i]
	}
	xs := durationsMS(med)
	r.set("ops_per_s", float64(len(med))/sum.Seconds())
	r.set("p50_ms", median(xs))
	r.set("tail_ms", percentile(xs, 75))
	r.note("tail_ms is p75_ms here: %d samples, %d beyond it", len(xs), len(xs)-len(xs)*3/4)
	pathStats{"computed/" + gpuscale.TierCycle: med}.report(r) // pass held every answer to that path
}

// ---------------------------------------------------------------------------
// svc-hot: everything has been asked before; the simulator does nothing.

// hotRanks is svc-hot's key universe in popularity order: the analytic key
// universe (27 workloads x scheduler x L1 x NoC x issue width), with a
// tier:auto request at every tenth rank and a cached cycle body at every
// tenth rank, so the mix does not depend on the seed — only the draws do.
func hotRanks(toy bool) (ranks, populate []*request, err error) {
	cycle := gpuscale.TierCycle
	var cycles, autos, analytics []*request
	stored := map[string]bool{} // benches whose cycle predict body is in the store
	addCycle := func(wire gpuscale.Request, sims int) {
		req := newRequest(wire, cycle, sims)
		cycles = append(cycles, req)
		populate = append(populate, req)
	}
	mrcs, sims, preds := []string{"ht", "va", "gemm", "2mm", "st", "as"}, []string{"ht", "va", "gemm", "2mm"}, []string{"gemm", "2mm"}
	if toy {
		mrcs, sims, preds = []string{"gemm"}, []string{"ht"}, nil
	}
	for _, b := range mrcs {
		addCycle(mrcReq(b), 0)
	}
	for _, b := range sims {
		addCycle(simulateReq(b, 8, nil), 1)
	}
	for _, b := range preds {
		addCycle(predictReq(b, false, "", nil), 2)
		stored[b] = true
		// tier:auto finds the settled cycle body and serves it.
		cycles = append(cycles, newRequest(predictReq(b, false, gpuscale.TierAuto, nil), cycle, 0))
	}

	type wl struct {
		bench string
		weak  bool
	}
	var wls []wl
	for _, b := range gpuscale.Benchmarks() {
		wls = append(wls, wl{b.Name, false})
	}
	for _, b := range gpuscale.WeakBenchmarks() {
		wls = append(wls, wl{b.Name, true})
	}
	scheds, l1s, nocs, widths := []string{"gto", "lrr", "two-level"}, []string{"line", "sectored"}, []string{"xbar", "deflect"}, []int{1, 2, 4}
	if toy {
		wls, widths = wls[:3], []int{1, 2}
	}
	for _, w := range wls {
		for _, s := range scheds {
			for _, l := range l1s {
				for _, n := range nocs {
					for _, iw := range widths {
						v := variant(fmt.Sprintf("%s,%s,%s,iw=%d", s, l, n, iw))
						req := newRequest(predictReq(w.bench, w.weak, gpuscale.TierAnalytic, v), gpuscale.TierAnalytic, 0)
						analytics = append(analytics, req)
						populate = append(populate, req)
						if v.Canonical() != (gpuscale.UarchVariant{}) || (stored[w.bench] && !w.weak) {
							continue
						}
						// The baseline microarchitecture: tier:auto answers
						// analytically where the model is confident enough.
						ap, err := gpuscale.PredictAnalytic(req.wire)
						if err != nil {
							return nil, nil, err
						}
						if ap.Confidence >= gpuscale.DefaultConfidenceThreshold {
							auto := newRequest(predictReq(w.bench, w.weak, gpuscale.TierAuto, nil), gpuscale.TierAnalytic, 0)
							autos = append(autos, auto)
						}
					}
				}
			}
		}
	}
	// A fixed shuffle, so that rank does not follow benchmark order.
	rand.New(rand.NewSource(1)).Shuffle(len(analytics), func(i, j int) { analytics[i], analytics[j] = analytics[j], analytics[i] })
	for len(analytics)+len(autos)+len(cycles) > 0 {
		i := len(ranks)
		switch {
		case i%10 == 3 && len(autos) > 0:
			ranks, autos = append(ranks, autos[0]), autos[1:]
		case i%10 == 7 && len(cycles) > 0:
			ranks, cycles = append(ranks, cycles[0]), cycles[1:]
		case len(analytics) > 0:
			ranks, analytics = append(ranks, analytics[0]), analytics[1:]
		case len(autos) > 0:
			ranks, autos = append(ranks, autos[0]), autos[1:]
		default:
			ranks, cycles = append(ranks, cycles[0]), cycles[1:]
		}
	}
	return ranks, populate, nil
}
