package gpuscale_test

import (
	"encoding/json"
	"strings"
	"testing"

	"gpuscale"
)

func simRequest() gpuscale.Request {
	return gpuscale.Request{
		Op:       gpuscale.OpSimulate,
		Target:   gpuscale.TargetSpec{SMs: 8},
		Workload: gpuscale.WorkloadSpec{Bench: "dct"},
	}
}

// validateCases mutate simRequest into the valid and invalid spellings
// TestRequestValidate pins; FuzzParseCanonicalize seeds its corpus from them.
var validateCases = []struct {
	name    string
	mutate  func(*gpuscale.Request)
	wantErr string // "" = valid
}{
	{"simulate ok", func(r *gpuscale.Request) {}, ""},
	{"version 1 ok", func(r *gpuscale.Request) { r.Version = gpuscale.RequestVersion }, ""},
	{"future version", func(r *gpuscale.Request) { r.Version = 99 }, "unsupported request version"},
	{"no op", func(r *gpuscale.Request) { r.Op = "" }, "no op"},
	{"unknown op", func(r *gpuscale.Request) { r.Op = "forecast" }, "unknown op"},
	{"no bench", func(r *gpuscale.Request) { r.Workload.Bench = "" }, "no benchmark"},
	{"unknown bench", func(r *gpuscale.Request) { r.Workload.Bench = "zzz" }, "unknown benchmark"},
	{"both targets", func(r *gpuscale.Request) { r.Target.Chiplets = 4 }, "both sms and chiplets"},
	{"neither target", func(r *gpuscale.Request) { r.Target.SMs = 0 }, "neither sms nor chiplets"},
	{"negative target", func(r *gpuscale.Request) { r.Target.SMs = -8 }, "negative target"},
	{"negative max_cycles", func(r *gpuscale.Request) { r.Options.MaxCycles = -1 }, "negative max_cycles"},
	{"negative shards", func(r *gpuscale.Request) { r.Options.Shards = -1 }, "negative shards"},
	{"negative quantum", func(r *gpuscale.Request) { r.Options.Quantum = -1 }, "negative quantum"},
	{"mcm simulate ok", func(r *gpuscale.Request) {
		r.Target = gpuscale.TargetSpec{Chiplets: 4}
		r.Workload = gpuscale.WorkloadSpec{Bench: "va", Weak: true}
	}, ""},
	{"mcm warmup", func(r *gpuscale.Request) {
		r.Target = gpuscale.TargetSpec{Chiplets: 4}
		r.Options.WarmupInstructions = 100
	}, "warmup_instructions is not supported on MCM"},
	{"predict ok", func(r *gpuscale.Request) {
		r.Op = gpuscale.OpPredict
		r.Target = gpuscale.TargetSpec{}
	}, ""},
	{"predict with sms", func(r *gpuscale.Request) {
		r.Op = gpuscale.OpPredict
	}, "leave target.sms unset"},
	{"predict mcm ok", func(r *gpuscale.Request) {
		r.Op = gpuscale.OpPredict
		r.Target = gpuscale.TargetSpec{Chiplets: 16}
		r.Workload = gpuscale.WorkloadSpec{Bench: "va", Weak: true}
	}, ""},
	{"predict mcm wrong size", func(r *gpuscale.Request) {
		r.Op = gpuscale.OpPredict
		r.Target = gpuscale.TargetSpec{Chiplets: 8}
		r.Workload = gpuscale.WorkloadSpec{Bench: "va", Weak: true}
	}, "only the 16-chiplet target"},
	{"predict mcm strong", func(r *gpuscale.Request) {
		r.Op = gpuscale.OpPredict
		r.Target = gpuscale.TargetSpec{Chiplets: 16}
	}, "requires a weak-scaling family"},
	{"predict with max_cycles", func(r *gpuscale.Request) {
		r.Op = gpuscale.OpPredict
		r.Target = gpuscale.TargetSpec{}
		r.Options.MaxCycles = 100
	}, "do not apply to predict"},
	{"mrc ok", func(r *gpuscale.Request) {
		r.Op = gpuscale.OpMRC
		r.Target = gpuscale.TargetSpec{}
	}, ""},
	{"mrc with target", func(r *gpuscale.Request) {
		r.Op = gpuscale.OpMRC
	}, "leave target unset"},
	{"mrc weak", func(r *gpuscale.Request) {
		r.Op = gpuscale.OpMRC
		r.Target = gpuscale.TargetSpec{}
		r.Workload = gpuscale.WorkloadSpec{Bench: "va", Weak: true}
	}, "strong-scaling benchmarks only"},
	{"mrc with warmup", func(r *gpuscale.Request) {
		r.Op = gpuscale.OpMRC
		r.Target = gpuscale.TargetSpec{}
		r.Options.WarmupInstructions = 5
	}, "do not apply to mrc"},
}

func TestRequestValidate(t *testing.T) {
	for _, tc := range validateCases {
		r := simRequest()
		tc.mutate(&r)
		err := r.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestCanonicalizeEquivalences(t *testing.T) {
	base := simRequest()
	canon, hash, err := gpuscale.Canonicalize(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(hash) != 64 {
		t.Fatalf("hash %q is not a sha256 hex digest", hash)
	}

	// Version 0 ("current") and the explicit current version hash the same.
	v1 := base
	v1.Version = gpuscale.RequestVersion
	if _, h, err := gpuscale.Canonicalize(v1); err != nil || h != hash {
		t.Errorf("explicit version changed the hash: %v %v", h == hash, err)
	}

	// Shards is result-invariant and must be stripped from the canonical form.
	sharded := base
	sharded.Options.Shards = 8
	cs, h, err := gpuscale.Canonicalize(sharded)
	if err != nil || h != hash {
		t.Errorf("shards changed the hash: %v %v", h == hash, err)
	}
	if string(cs) != string(canon) {
		t.Errorf("shards changed the canonical bytes:\n%s\n%s", cs, canon)
	}
	if strings.Contains(string(canon), "shards") {
		t.Errorf("canonical form leaks shards: %s", canon)
	}

	// JSON field order does not matter: a reordered spelling parses and
	// canonicalises to the same bytes.
	reordered := []byte(`{"workload":{"bench":"dct"},"target":{"sms":8},"op":"simulate","version":0}`)
	pr, err := gpuscale.ParseRequest(reordered)
	if err != nil {
		t.Fatal(err)
	}
	if _, h, err := gpuscale.Canonicalize(pr); err != nil || h != hash {
		t.Errorf("field order changed the hash: %v %v", h == hash, err)
	}

	// A semantically different request must hash differently.
	other := base
	other.Target.SMs = 16
	if _, h, _ := gpuscale.Canonicalize(other); h == hash {
		t.Error("different target produced the same hash")
	}
	warm := base
	warm.Options.WarmupInstructions = 1000
	if _, h, _ := gpuscale.Canonicalize(warm); h == hash {
		t.Error("warmup_instructions did not change the hash")
	}

	// Canonicalize refuses invalid requests.
	bad := base
	bad.Workload.Bench = ""
	if _, _, err := gpuscale.Canonicalize(bad); err == nil {
		t.Error("canonicalised an invalid request")
	}
}

// TestCanonicalizeStripsShardingOptions pins the daemon cache-key
// stability contract for the monolithic simulator's sharding knobs: a
// simulate request with any combination of shards and quantum set must
// canonicalise to the same bytes and hash as one with neither: shards is
// bit-identity-preserving host execution strategy (docs/PARALLELISM.md),
// quantum is accepted and ignored, and neither may fragment the cache key
// space.
func TestCanonicalizeStripsShardingOptions(t *testing.T) {
	base := simRequest() // monolithic: target.sms = 8
	canon, hash, err := gpuscale.Canonicalize(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []gpuscale.RequestOptions{
		{Shards: 4},
		{Quantum: 256},
		{Shards: 4, Quantum: 256},
	} {
		r := base
		r.Options.Shards = opt.Shards
		r.Options.Quantum = opt.Quantum
		cs, h, err := gpuscale.Canonicalize(r)
		if err != nil {
			t.Fatalf("shards=%d quantum=%d: %v", opt.Shards, opt.Quantum, err)
		}
		if h != hash {
			t.Errorf("shards=%d quantum=%d changed the hash", opt.Shards, opt.Quantum)
		}
		if string(cs) != string(canon) {
			t.Errorf("shards=%d quantum=%d changed the canonical bytes:\n%s\n%s",
				opt.Shards, opt.Quantum, cs, canon)
		}
	}
	for _, leak := range []string{"shards", "quantum"} {
		if strings.Contains(string(canon), leak) {
			t.Errorf("canonical form leaks %s: %s", leak, canon)
		}
	}

	// The stripped shard count still reaches the simulator via
	// ResolveSimulation (server policy may override it, but the request's
	// spelling works); quantum reaches nothing.
	r := base
	r.Options.Shards = 4
	r.Options.Quantum = 256
	if o, err := resolvedOptions(r); err != nil || o != (gpuscale.SimOptions{Shards: 4}) {
		t.Errorf("resolved options %+v (err %v), want only Shards=4", o, err)
	}
}

// resolvedOptions applies r's ResolveSimulation options to a zero SimOptions.
func resolvedOptions(r gpuscale.Request) (gpuscale.SimOptions, error) {
	var o gpuscale.SimOptions
	tgt, err := r.ResolveSimulation()
	for _, fn := range tgt.Options {
		fn(&o)
	}
	return o, err
}

// TestCanonicalizeStripsTier pins the tier half of the cache-key
// contract: the tier routes a predict request between serving tiers but
// can never change what the cycle response contains, so every tier
// spelling must canonicalise to the same bytes and hash as a tierless
// request — and the analytic tier's own cache entries must live under a
// distinct derived key so they can never shadow a cycle response.
func TestCanonicalizeStripsTier(t *testing.T) {
	base := gpuscale.Request{
		Op:       gpuscale.OpPredict,
		Workload: gpuscale.WorkloadSpec{Bench: "dct"},
	}
	canon, hash, err := gpuscale.Canonicalize(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []string{gpuscale.TierCycle, gpuscale.TierAnalytic, gpuscale.TierAuto} {
		r := base
		r.Options.Tier = tier
		cs, h, err := gpuscale.Canonicalize(r)
		if err != nil {
			t.Fatalf("tier=%s: %v", tier, err)
		}
		if h != hash {
			t.Errorf("tier=%s changed the hash", tier)
		}
		if string(cs) != string(canon) {
			t.Errorf("tier=%s changed the canonical bytes:\n%s\n%s", tier, cs, canon)
		}
	}
	if strings.Contains(string(canon), "tier") {
		t.Errorf("canonical form leaks tier: %s", canon)
	}

	akey := gpuscale.AnalyticCacheKey(hash)
	if akey == hash {
		t.Error("analytic cache key collides with the canonical hash")
	}
	if len(akey) != len(hash) {
		t.Errorf("analytic cache key %q is not hash-shaped", akey)
	}
	if gpuscale.AnalyticCacheKey(hash) != akey {
		t.Error("analytic cache key is not deterministic")
	}

	// Tiers are predict-only on the wire; a simulate request must reject
	// them instead of silently fragmenting the cache key space.
	sim := simRequest()
	sim.Options.Tier = gpuscale.TierAnalytic
	if err := sim.Validate(); err == nil {
		t.Error("simulate request accepted an analytic tier")
	}
	bad := base
	bad.Options.Tier = "warp-speed"
	if err := bad.Validate(); err == nil {
		t.Error("unknown tier validated")
	}
}

func TestParseRequestStrict(t *testing.T) {
	if _, err := gpuscale.ParseRequest([]byte(`{"op":"simulate","tarrget":{"sms":8}}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := gpuscale.ParseRequest([]byte(`{"op":"simulate"}{"op":"mrc"}`)); err == nil {
		t.Error("trailing data accepted")
	}
	if _, err := gpuscale.ParseRequest([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
	r, err := gpuscale.ParseRequest([]byte(`{"op":"predict","workload":{"bench":"ht"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if r.Op != gpuscale.OpPredict || r.Workload.Bench != "ht" {
		t.Errorf("parsed %+v", r)
	}
}

// TestRequestIntakeAllocs bounds the allocations of the daemon's
// per-request intake. ParseRequest plus Canonicalize resolves the benchmark
// by name several times, so a lookup that rebuilds the whole suite (about
// 58 allocations a call) breaks both bounds.
func TestRequestIntakeAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := gpuscale.BenchmarkByName("ht"); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("BenchmarkByName allocates %.0f times per call, want <= 4", n)
	}
	body := []byte(`{"op":"predict","workload":{"bench":"ht"},"options":{"tier":"analytic"}}`)
	if n := testing.AllocsPerRun(100, func() {
		r, err := gpuscale.ParseRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := gpuscale.Canonicalize(r); err != nil {
			t.Fatal(err)
		}
	}); n > 40 {
		t.Errorf("ParseRequest + Canonicalize allocates %.0f times per request, want <= 40", n)
	}
}

func TestResolveSimulation(t *testing.T) {
	// Monolithic: scaled config, workload, warmup option.
	r := simRequest()
	r.Options.WarmupInstructions = 500
	tgt, err := r.ResolveSimulation()
	if err != nil {
		t.Fatal(err)
	}
	if tgt.System == nil || tgt.MCM != nil {
		t.Fatal("monolithic request resolved to MCM")
	}
	if tgt.System.NumSMs != 8 {
		t.Errorf("NumSMs = %d", tgt.System.NumSMs)
	}
	if tgt.Workload == nil || len(tgt.Options) != 1 {
		t.Errorf("workload %v, %d options", tgt.Workload, len(tgt.Options))
	}

	// MCM: chiplet config sized from the 16-chiplet building block.
	m := gpuscale.Request{
		Op:       gpuscale.OpSimulate,
		Target:   gpuscale.TargetSpec{Chiplets: 4},
		Workload: gpuscale.WorkloadSpec{Bench: "va", Weak: true},
		Options:  gpuscale.RequestOptions{Shards: 2},
	}
	mt, err := m.ResolveSimulation()
	if err != nil {
		t.Fatal(err)
	}
	if mt.MCM == nil || mt.System != nil {
		t.Fatal("MCM request resolved to monolithic")
	}
	if mt.MCM.NumChiplets != 4 {
		t.Errorf("NumChiplets = %d", mt.MCM.NumChiplets)
	}
	if len(mt.Options) != 1 {
		t.Errorf("%d options, want 1 (shards)", len(mt.Options))
	}

	// The uarch variant is part of the resolved configuration, as in
	// ScaleModels, not a simulation option.
	v, err := gpuscale.ParseUarch("two-level,sectored")
	if err != nil {
		t.Fatal(err)
	}
	r.Options.WarmupInstructions = 0
	r.Options.Uarch = &v
	m.Options = gpuscale.RequestOptions{Uarch: &v}
	for _, req := range []gpuscale.Request{r, m} {
		tgt, err := req.ResolveSimulation()
		if err != nil {
			t.Fatal(err)
		}
		got := tgt.System
		if tgt.MCM != nil {
			got = &tgt.MCM.Chiplet
		}
		if got.Uarch != v || len(tgt.Options) != 0 {
			t.Errorf("%s: config variant %+v and %d options, want %+v and none", got.Name, got.Uarch, len(tgt.Options), v)
		}
	}

	// Non-simulate ops refuse to resolve.
	p := gpuscale.Request{Op: gpuscale.OpPredict, Workload: gpuscale.WorkloadSpec{Bench: "dct"}}
	if _, err := p.ResolveSimulation(); err == nil {
		t.Error("ResolveSimulation accepted a predict request")
	}
}

// TestScaleModels pins the predict-op resolver: the ladder, both scale
// models' configurations, the variant carried in each configuration, a
// weak workload sized by each model's total SMs, and the refusal of every
// other op.
func TestScaleModels(t *testing.T) {
	v := gpuscale.UarchVariant{Scheduler: gpuscale.SchedTwoLevel, L1: gpuscale.L1Sectored}
	predict := func(bench string, weak bool, chiplets int, v *gpuscale.UarchVariant) gpuscale.Request {
		return gpuscale.Request{
			Op:       gpuscale.OpPredict,
			Target:   gpuscale.TargetSpec{Chiplets: chiplets},
			Workload: gpuscale.WorkloadSpec{Bench: bench, Weak: weak},
			Options:  gpuscale.RequestOptions{Uarch: v},
		}
	}
	cases := []struct {
		name    string
		req     gpuscale.Request
		sizes   []float64
		wantErr string
	}{
		{"strong", predict("dct", false, 0, nil), []float64{8, 16, 32, 64, 128}, ""},
		{"weak", predict("bfs", true, 0, nil), []float64{8, 16, 32, 64, 128}, ""},
		{"mcm", predict("va", true, 16, nil), []float64{4, 8, 16}, ""},
		{"variant", predict("dct", false, 0, &v), []float64{8, 16, 32, 64, 128}, ""},
		{"mcm variant", predict("va", true, 16, &v), []float64{4, 8, 16}, ""},
		{"simulate", simRequest(), nil, "ScaleModels on \"simulate\""},
		{"mrc", gpuscale.Request{Op: gpuscale.OpMRC, Workload: gpuscale.WorkloadSpec{Bench: "dct"}}, nil, "ScaleModels on \"mrc\""},
	}
	for _, c := range cases {
		sizes, models, err := c.req.ScaleModels()
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err %v, want %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(sizes) != len(c.sizes) {
			t.Fatalf("%s: sizes %v, want %v", c.name, sizes, c.sizes)
		}
		for i := range sizes {
			if sizes[i] != c.sizes[i] {
				t.Errorf("%s: sizes %v, want %v", c.name, sizes, c.sizes)
			}
		}
		var want gpuscale.UarchVariant
		if c.req.Options.Uarch != nil {
			want = *c.req.Options.Uarch
		}
		for i, m := range models {
			if len(m.Options) != 0 {
				t.Errorf("%s model %d: %d options, want none (the variant lives in the config)", c.name, i, len(m.Options))
			}
			var n, totalSMs int
			var got gpuscale.UarchVariant
			if c.req.Target.Chiplets > 0 {
				if m.MCM == nil || m.System != nil {
					t.Fatalf("%s model %d: not an MCM target", c.name, i)
				}
				n, totalSMs, got = m.MCM.NumChiplets, m.MCM.TotalSMs(), m.MCM.Chiplet.Uarch
			} else {
				if m.System == nil || m.MCM != nil {
					t.Fatalf("%s model %d: not a monolithic target", c.name, i)
				}
				n, totalSMs, got = m.System.NumSMs, m.System.NumSMs, m.System.Uarch
			}
			if float64(n) != sizes[i] {
				t.Errorf("%s model %d: size %d, want %v", c.name, i, n, sizes[i])
			}
			if got != want {
				t.Errorf("%s model %d: uarch %+v, want %+v", c.name, i, got, want)
			}
			w, err := c.req.Workload.Resolve(totalSMs)
			if err != nil {
				t.Fatal(err)
			}
			if m.Workload.Name() != w.Name() {
				t.Errorf("%s model %d: workload %s, want %s (sized for %d SMs)", c.name, i, m.Workload.Name(), w.Name(), totalSMs)
			}
		}
	}
}

// TestCanonicalizeKeepsUarch pins the hash semantics of the
// microarchitecture variant: unlike Shards/Quantum/Tier it changes
// simulated timing, so it stays in the canonical form. Legacy requests
// (no uarch field) must keep their exact pre-variant hashes — the literal
// digests below were recorded before options.uarch existed — and an
// explicitly-spelled default variant must collapse onto them.
func TestCanonicalizeKeepsUarch(t *testing.T) {
	legacy := []struct {
		name string
		r    gpuscale.Request
		hash string
	}{
		{
			"simulate/16sm/dct",
			gpuscale.Request{Op: gpuscale.OpSimulate, Target: gpuscale.TargetSpec{SMs: 16}, Workload: gpuscale.WorkloadSpec{Bench: "dct"}},
			"cfd45fc36b520efb3a28cbb9e5aaaf1cadaea142951b38e52b88ca21991a2a35",
		},
		{
			"predict/bfs",
			gpuscale.Request{Op: gpuscale.OpPredict, Workload: gpuscale.WorkloadSpec{Bench: "bfs"}, Options: gpuscale.RequestOptions{Shards: 4, Tier: gpuscale.TierAuto}},
			"9946f4187df8df4624d488a4858b13f8cb4e4eca73e5ab88b64962980cd399ed",
		},
		{
			"mrc/pf",
			gpuscale.Request{Op: gpuscale.OpMRC, Workload: gpuscale.WorkloadSpec{Bench: "pf"}},
			"0fa0e2547da887c4e6bddaac1cb926681af7bbc14a38c006f615439f5f48710c",
		},
	}
	for _, c := range legacy {
		_, h, err := gpuscale.Canonicalize(c.r)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if h != c.hash {
			t.Errorf("%s: legacy hash changed: got %s want %s", c.name, h, c.hash)
		}
		// Spelling the default variant out must hash identically to
		// omitting it — the canonical form normalises defaults away.
		r := c.r
		r.Options.Uarch = &gpuscale.UarchVariant{Scheduler: gpuscale.SchedGTO, L1: gpuscale.L1Line, NoC: gpuscale.RouteXbar, IssueWidth: 1}
		canon, h2, err := gpuscale.Canonicalize(r)
		if err != nil {
			t.Fatalf("%s explicit default: %v", c.name, err)
		}
		if h2 != c.hash {
			t.Errorf("%s: explicit-default variant hash %s != legacy %s\ncanon %s", c.name, h2, c.hash, canon)
		}
		// A real variant must move the hash: it selects different simulated
		// hardware and must never share the baseline's cached body.
		r.Options.Uarch = &gpuscale.UarchVariant{Scheduler: gpuscale.SchedTwoLevel}
		canon2, h3, err := gpuscale.Canonicalize(r)
		if err != nil {
			t.Fatalf("%s two-level: %v", c.name, err)
		}
		if h3 == c.hash {
			t.Errorf("%s: two-level variant hashed identically to the baseline", c.name)
		}
		if !strings.Contains(string(canon2), `"uarch":{"scheduler":"two-level"}`) {
			t.Errorf("%s: canonical form lacks the normalised variant: %s", c.name, canon2)
		}
		// Partial and fully-spelled forms of the same variant collapse.
		r.Options.Uarch = &gpuscale.UarchVariant{Scheduler: gpuscale.SchedTwoLevel, L1: gpuscale.L1Line, NoC: gpuscale.RouteXbar, IssueWidth: 1}
		_, h4, err := gpuscale.Canonicalize(r)
		if err != nil {
			t.Fatal(err)
		}
		if h4 != h3 {
			t.Errorf("%s: equivalent variant spellings hash apart: %s vs %s", c.name, h4, h3)
		}
	}
	// Distinct variants get distinct keys.
	a := simRequest()
	a.Options.Uarch = &gpuscale.UarchVariant{L1: gpuscale.L1Sectored}
	b := simRequest()
	b.Options.Uarch = &gpuscale.UarchVariant{NoC: gpuscale.RouteDeflect}
	_, ha, err := gpuscale.Canonicalize(a)
	if err != nil {
		t.Fatal(err)
	}
	_, hb, err := gpuscale.Canonicalize(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha == hb {
		t.Error("sectored and deflect variants share a cache key")
	}
	// Invalid variants fail validation before hashing.
	bad := simRequest()
	bad.Options.Uarch = &gpuscale.UarchVariant{Scheduler: "fifo"}
	if _, _, err := gpuscale.Canonicalize(bad); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

// FuzzParseCanonicalize checks the wire contract on generated request
// bytes: ParseRequest never panics; for anything that validates,
// Canonicalize is idempotent and the hash is invariant under any shard
// count, any quantum and every tier spelling the op accepts; and
// ResolveSimulation yields the same SimOptions with and without quantum.
// The seed corpus is the Validate table plus the strict-parse cases, so
// plain `go test` exercises it; `go test -fuzz FuzzParseCanonicalize .`
// explores further.
func FuzzParseCanonicalize(f *testing.F) {
	for _, tc := range validateCases {
		r := simRequest()
		tc.mutate(&r)
		buf, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf, uint16(3), uint16(64))
	}
	for _, raw := range []string{
		`{"workload":{"bench":"dct"},"target":{"sms":8},"op":"simulate","version":0}`,
		`{"op":"simulate","tarrget":{"sms":8}}`,
		`{"op":"simulate"}{"op":"mrc"}`,
		`{"op":"predict","workload":{"bench":"ht"},"options":{"tier":"auto","uarch":{"scheduler":"gto","issue_width":1}}}`,
		`not json`,
	} {
		f.Add([]byte(raw), uint16(0), uint16(256))
	}
	f.Fuzz(func(t *testing.T, data []byte, shards, quantum uint16) {
		r, err := gpuscale.ParseRequest(data)
		if err != nil {
			return
		}
		canon, hash, err := gpuscale.Canonicalize(r)
		if err != nil {
			return
		}
		cr, err := gpuscale.ParseRequest(canon)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, canon)
		}
		if again, h, err := gpuscale.Canonicalize(cr); err != nil || h != hash || string(again) != string(canon) {
			t.Fatalf("Canonicalize is not idempotent (err %v):\n%s\n%s", err, canon, again)
		}

		tiers := []string{"", gpuscale.TierCycle}
		if r.Op == gpuscale.OpPredict {
			tiers = append(tiers, gpuscale.TierAnalytic, gpuscale.TierAuto)
		}
		for _, tier := range tiers {
			v := r
			v.Options.Shards, v.Options.Quantum, v.Options.Tier = int(shards), int(quantum), tier
			if _, h, err := gpuscale.Canonicalize(v); err != nil || h != hash {
				t.Fatalf("shards=%d quantum=%d tier=%q moved the hash (err %v)", shards, quantum, tier, err)
			}
		}

		if r.Op != gpuscale.OpSimulate {
			return
		}
		v := r
		v.Options.Quantum = int(quantum)
		with, errWith := resolvedOptions(v)
		v.Options.Quantum = 0
		without, errWithout := resolvedOptions(v)
		if (errWith == nil) != (errWithout == nil) || with != without {
			t.Fatalf("quantum=%d changed the resolved simulation: %+v (%v) vs %+v (%v)",
				quantum, with, errWith, without, errWithout)
		}
	})
}
