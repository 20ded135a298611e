package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"gpuscale"
	"gpuscale/internal/server"
)

// hotClients is svc-hot's client count: callers of a prediction service
// wait for their reply, so the loop is closed; two callers keep both cores
// of this box busy without more connections than cores.
const hotClients = 2

// zipfExponent shapes svc-hot's popularity curve. With about a thousand
// keys and half of them fitting in memory, an exponent just under one
// sends roughly one request in eight to the cold half — enough disk reads
// for the 99th percentile to be made of them.
const zipfExponent = 0.9

// entryOverhead mirrors harness.ResultStore's per-entry charge, to size
// MemoBytes for half the universe.
const entryOverhead = 128

type hotWorkload struct {
	dir       string
	d         *daemon
	c         *client
	ranks     []*request
	cdf       []float64 // cumulative Zipf weight by rank
	memoBytes int64
	before    map[string]float64
}

func (w *hotWorkload) setUp(ctx context.Context, p *params) error {
	ranks, populate, err := hotRanks(p.toy)
	if err != nil {
		return err
	}
	w.ranks = ranks
	if w.dir, err = storeDir(p); err != nil {
		return err
	}
	// First life of the daemon: compute every body once, which writes the
	// store's disk level. The bodies are the answers every later request
	// must reproduce byte for byte.
	d, err := boot(server.Options{StoreDir: w.dir})
	if err != nil {
		return err
	}
	c := newClient(d.url, hotClients)
	bodies, err := populateStore(c, populate)
	c.close()
	d.stop()
	if err != nil {
		return err
	}
	var total int64
	for key, body := range bodies {
		total += int64(len(key)) + int64(len(body)) + entryOverhead
	}
	w.memoBytes = total / 2
	for _, req := range w.ranks {
		if req.want = bodies[req.key]; req.want == nil {
			return fmt.Errorf("no populated body for %s %s", req.path, req.body)
		}
	}
	w.cdf = make([]float64, len(w.ranks))
	var sum float64
	for i := range w.cdf {
		sum += math.Pow(float64(i+1), -zipfExponent)
		w.cdf[i] = sum
	}

	// Second life: the same daemon restarted on the populated store, with
	// memory for half of it.
	if w.d, err = boot(server.Options{StoreDir: w.dir, MemoBytes: w.memoBytes}); err != nil {
		return err
	}
	w.c = newClient(w.d.url, hotClients)
	if _, err := w.c.post(w.ranks[0]); err != nil { // warm-up: opens the first connection
		return err
	}
	w.before, err = w.c.counters()
	return err
}

// populateStore posts every request once from hotClients callers and
// returns the computed bodies by store key.
func populateStore(c *client, reqs []*request) (map[string][]byte, error) {
	bodies := make(map[string][]byte, len(reqs))
	var mu sync.Mutex
	var firstErr error
	next := make(chan *request)
	var wg sync.WaitGroup
	for i := 0; i < hotClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range next {
				a, err := c.post(req)
				if err == nil && (a.status != http.StatusOK || a.cache != "computed" || a.tier != req.tier) {
					err = fmt.Errorf("populating %s %s: status %d, X-Cache %q, X-Tier %q", req.path, req.body, a.status, a.cache, a.tier)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				bodies[req.key] = a.body
				mu.Unlock()
			}
		}()
	}
	for _, req := range reqs {
		next <- req
	}
	close(next)
	wg.Wait()
	return bodies, firstErr
}

func (w *hotWorkload) tearDown() {
	if w.c != nil {
		w.c.close()
		w.c = nil
	}
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// draw picks a rank from the Zipf distribution.
func (w *hotWorkload) draw(rng *rand.Rand) *request {
	u := rng.Float64() * w.cdf[len(w.cdf)-1]
	return w.ranks[sort.SearchFloat64s(w.cdf, u)]
}

// hotTally is what one client saw.
type hotTally struct {
	lat       []time.Duration
	paths     pathStats
	byOp      map[string]int
	failed    int
	attempted int
	problems  []string
}

// afterFunc is called once per answered request in traced runs; op numbers
// the request across all clients.
type afterFunc func(op int, req *request, a answer)

// load runs the closed loop: hotClients callers, each drawing its own
// seeded Zipf sequence, until stop says so. Every answer is held to its
// populated body.
func (w *hotWorkload) load(seed int64, stop func(sent int, elapsed time.Duration) bool, after afterFunc) (tallies []*hotTally, elapsed time.Duration) {
	tallies = make([]*hotTally, hotClients)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range tallies {
		t := &hotTally{paths: pathStats{}, byOp: map[string]int{}}
		tallies[ci] = t
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*hotClients + int64(ci)))
			for !stop(t.attempted, time.Since(start)) {
				req := w.draw(rng)
				t.attempted++
				a, err := w.c.post(req)
				if err != nil || a.status != http.StatusOK {
					t.failed++
					t.problems = append(t.problems, fmt.Sprintf("%s %s: status %d, %v", req.path, req.body, a.status, err))
					continue
				}
				if a.tier != req.tier || a.cache == "computed" || !bytes.Equal(a.body, req.want) {
					t.problems = append(t.problems, fmt.Sprintf("%s %s: X-Cache %q X-Tier %q (want cached, %s), body as populated: %v",
						req.path, req.body, a.cache, a.tier, req.tier, bytes.Equal(a.body, req.want)))
				}
				t.lat = append(t.lat, a.latency)
				t.paths.add(a)
				t.byOp[req.wire.Op]++
				if after != nil {
					after(ci+hotClients*t.attempted, req, a)
				}
			}
		}(ci)
	}
	wg.Wait()
	return tallies, time.Since(start)
}

// fold merges the clients' tallies into the result and reconciles the
// server's counters with them.
func (w *hotWorkload) fold(r *result, tallies []*hotTally) (lat []time.Duration, paths pathStats) {
	paths = pathStats{}
	byOp := map[string]int{}
	for _, t := range tallies {
		r.Attempted += t.attempted
		r.Failed += t.failed
		for _, p := range t.problems {
			r.fail("%s", p)
		}
		lat = append(lat, t.lat...)
		paths.merge(t.paths)
		for op, n := range t.byOp {
			byOp[op] += n
		}
	}
	want := map[string]int{
		"server_cache_misses": 0, "server_sims_started": 0, "server_tier_escalated": 0,
		"server_errors": 0, "server_backpressure_rejected": 0,
		"server_cache_hits_memory": len(paths.byCache("memory")),
		"server_cache_hits_disk":   len(paths.byCache("disk")),
		"server_cache_coalesced":   len(paths.byCache("coalesced")),
		"server_tier_cycle":        0,
		"server_tier_analytic":     0,
	}
	for k, v := range paths {
		if strings.HasSuffix(k, "/"+gpuscale.TierCycle) {
			want["server_tier_cycle"] += len(v)
		} else {
			want["server_tier_analytic"] += len(v)
		}
	}
	for op, n := range byOp {
		want["server_requests_"+op] = n
	}
	reconcile(r, w.c, w.before, want)
	return lat, paths
}

func (w *hotWorkload) measure(ctx context.Context, p *params, r *result) {
	limit := time.Duration(p.seconds * float64(time.Second))
	tallies, elapsed := w.load(p.seed, func(_ int, el time.Duration) bool { return el >= limit }, nil)
	lat, paths := w.fold(r, tallies)
	if len(lat) == 0 {
		return
	}
	xs := durationsMS(lat)
	r.set("ops_per_s", float64(len(lat))/elapsed.Seconds())
	r.set("p50_ms", median(xs))
	r.set("tail_ms", percentile(xs, 99))
	r.note("%d requests in %.2f s, closed loop, %d clients; %d keys by Zipf(%.1f), %d KiB of memory for %d KiB of bodies; tail_ms is p99_ms here: %d samples beyond it",
		len(lat), elapsed.Seconds(), hotClients, len(w.ranks), zipfExponent, w.memoBytes>>10, w.memoBytes>>9, len(lat)/100)
	paths.report(r)
	w.checkLocal(ctx, r)
}

// checkLocal holds a sample of the analytic bodies to server.EvalLocal (the
// cycle bodies would cost a simulation each; svc-fresh checks those).
func (w *hotWorkload) checkLocal(ctx context.Context, r *result) {
	n := 0
	for _, req := range w.ranks {
		if req.tier == gpuscale.TierAnalytic && n < 25 {
			checkEvalLocal(ctx, r, req)
			n++
		}
	}
	r.note("output check: every answer byte-identical to its populated body; %d analytic bodies also to server.EvalLocal", n)
}
