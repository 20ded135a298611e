package server

// Generated requests through every front door: the daemon computing a
// body, replaying it from memory, replaying it from disk after a restart,
// and EvalLocal, which the CLIs use without a daemon, must all return the
// same bytes for one canonical request, and so must any other spelling of
// it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"gpuscale"
)

// door is one generated request and what the test learns about it.
type door struct {
	req  gpuscale.Request
	hash string // from Canonicalize
	tier string // the tier expected to answer it
	body []byte // the daemon's computed body
}

// doorRequests draws n distinct valid requests (by canonical hash) from a
// fixed seed. The draw spans the three ops, monolithic and MCM targets,
// strong and weak workloads, uarch variants and the three tiers, but only
// over cells whose cycle-tier answer takes well under a second on two
// cores: a cycle-tier 16-chiplet predict (3-5 s) is left to
// TestServerAutoEscalation.
func doorRequests(t *testing.T, n int) []*door {
	rng := rand.New(rand.NewSource(1))
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	seen := map[string]bool{}
	var out []*door
	for len(out) < n {
		r := gpuscale.Request{Op: pick(gpuscale.OpSimulate, gpuscale.OpPredict, gpuscale.OpPredict, gpuscale.OpMRC)}
		r.Workload.Weak = r.Op != gpuscale.OpMRC && rng.Intn(2) == 0
		if r.Workload.Weak {
			r.Workload.Bench = pick("as", "bp", "bs")
		} else {
			r.Workload.Bench = pick("ht", "gemm", "as")
		}
		switch r.Op {
		case gpuscale.OpSimulate:
			if r.Workload.Weak && rng.Intn(2) == 0 {
				r.Target.Chiplets = 1
			} else {
				r.Target.SMs = 8 << rng.Intn(2)
			}
		case gpuscale.OpPredict:
			if r.Workload.Weak && rng.Intn(2) == 0 {
				r.Target.Chiplets = 16
			}
			r.Options.Tier = pick("", gpuscale.TierCycle, gpuscale.TierAnalytic, gpuscale.TierAuto)
		}
		if v := pick("", "", "", "two-level", "lrr", "sectored", "iw=2"); v != "" {
			u, err := gpuscale.ParseUarch(v)
			if err != nil {
				t.Fatal(err)
			}
			r.Options.Uarch = &u
		}
		_, hash, err := gpuscale.Canonicalize(r)
		if err != nil {
			t.Fatalf("generated an invalid request %+v: %v", r, err)
		}
		d := &door{req: r, hash: hash, tier: gpuscale.TierCycle}
		switch r.Options.Tier {
		case gpuscale.TierAnalytic:
			d.tier = gpuscale.TierAnalytic
		case gpuscale.TierAuto:
			ap, err := gpuscale.PredictAnalytic(r)
			if err != nil {
				t.Fatal(err)
			}
			if ap.Confidence >= gpuscale.DefaultConfidenceThreshold {
				d.tier = gpuscale.TierAnalytic
			}
		}
		if seen[hash] || (r.Target.Chiplets == 16 && d.tier == gpuscale.TierCycle) {
			continue
		}
		seen[hash] = true
		out = append(out, d)
	}
	return out
}

// spell writes v as JSON with every object's keys in reverse order, one
// per line, and spaces around the punctuation.
func spell(b *strings.Builder, v any) {
	m, ok := v.(map[string]any)
	if !ok {
		data, _ := json.Marshal(v)
		b.Write(data)
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(keys)))
	b.WriteString("{\n")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" ,\n")
		}
		fmt.Fprintf(b, "\t%q :  ", k)
		spell(b, m[k])
	}
	b.WriteString("\n}")
}

// twin is another spelling of d's request that must hash and answer the
// same: fields reordered, other whitespace, shards and quantum set, and the
// tier named by the tier that answers the original ("" and "cycle" swap).
func twin(t *testing.T, d *door, rng *rand.Rand) string {
	data, err := json.Marshal(d.req)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	opts := m["options"].(map[string]any)
	opts["shards"], opts["quantum"] = 1+rng.Intn(3), rng.Intn(1000)
	switch d.req.Options.Tier {
	case "":
		opts["tier"] = gpuscale.TierCycle
	case gpuscale.TierCycle:
		delete(opts, "tier")
	default:
		opts["tier"] = d.tier
	}
	var b strings.Builder
	spell(&b, m)
	return b.String()
}

// TestEveryDoorSameBytes: for every generated request, the daemon's
// computed body equals its memory replay, its twin's body (another
// spelling, same hash), its disk replay after a restart on the same store
// directory, and EvalLocal's body; and requests of distinct hashes answer
// distinct bytes. An auto request's twin names the tier
// that answered it, so its body must equal that tier's. Under -short only
// the requests the analytic tier answers run.
func TestEveryDoorSameBytes(t *testing.T) {
	doors := doorRequests(t, 20)
	covered := map[string]bool{}
	for _, d := range doors {
		r := d.req
		covered[r.Op] = true
		covered[fmt.Sprint("mcm=", r.Target.Chiplets > 0, " weak=", r.Workload.Weak)] = true
		covered["requested "+r.Options.Tier] = true
		covered["answered "+d.tier] = true
		covered[r.Options.Tier+" answered "+d.tier] = true
		covered[fmt.Sprint("uarch=", r.Options.Uarch != nil)] = true
	}
	for _, want := range []string{gpuscale.OpSimulate, gpuscale.OpPredict, gpuscale.OpMRC,
		"mcm=false weak=false", "mcm=false weak=true", "mcm=true weak=true", "uarch=true",
		"requested ", "requested cycle", "requested analytic", "requested auto", "answered cycle", "answered analytic",
		"auto answered analytic", "auto answered cycle"} {
		if !covered[want] {
			t.Errorf("the generated requests miss %q", want)
		}
	}
	if testing.Short() {
		kept := doors[:0]
		for _, d := range doors {
			if d.tier == gpuscale.TierAnalytic {
				kept = append(kept, d)
			}
		}
		doors = kept
	}

	dir := t.TempDir()
	serve := func() (*Server, *httptest.Server) {
		s, err := New(Options{StoreDir: dir, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler())
	}
	ask := func(ts *httptest.Server, d *door, body, wantCache string) []byte {
		t.Helper()
		code, hdr, got := post(t, ts.Client(), ts.URL, "/v1/"+d.req.Op, body, "")
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", body, code, got)
		}
		if c, tier, h := hdr.Get("X-Cache"), hdr.Get("X-Tier"), hdr.Get("X-Request-Hash"); c != wantCache || tier != d.tier || h != d.hash {
			t.Errorf("%s: X-Cache %s X-Tier %s X-Request-Hash %s, want %s %s %s", body, c, tier, h, wantCache, d.tier, d.hash)
		}
		return got
	}

	rng := rand.New(rand.NewSource(2))
	s, ts := serve()
	for _, d := range doors {
		wire, err := json.Marshal(d.req)
		if err != nil {
			t.Fatal(err)
		}
		d.body = ask(ts, d, string(wire), "computed")
		if got := ask(ts, d, string(wire), "memory"); !bytes.Equal(got, d.body) {
			t.Errorf("%s: the memory replay differs from the computed body", wire)
		}
		if tw := twin(t, d, rng); !bytes.Equal(ask(ts, d, tw, "memory"), d.body) {
			t.Errorf("%s: its twin\n%s\nanswers other bytes", wire, tw)
		}
	}
	ts.Close()
	s.Close()
	bodies := map[string]bool{}
	for _, d := range doors {
		if bodies[string(d.body)] {
			t.Errorf("two requests of distinct hashes answer the same bytes:\n%s", d.body)
		}
		bodies[string(d.body)] = true
	}

	s, ts = serve()
	defer func() { ts.Close(); s.Close() }()
	for _, d := range doors {
		wire, _ := json.Marshal(d.req)
		if got := ask(ts, d, string(wire), "disk"); !bytes.Equal(got, d.body) {
			t.Errorf("%s: the disk replay differs from the computed body", wire)
		}
		local, hash, err := EvalLocal(context.Background(), d.req, 2, 0)
		if err != nil {
			t.Fatalf("%s: EvalLocal: %v", wire, err)
		}
		if hash != d.hash || !bytes.Equal(local, d.body) {
			t.Errorf("%s: EvalLocal answers hash %s and other bytes than the daemon", wire, hash)
		}
	}
}
