package gpuscale

// This file defines the canonical wire API shared by the CLIs and the
// gpuscaled daemon (internal/server): a versioned, JSON-serialisable
// description of one prediction-service operation — which simulator target,
// which workload (by benchmark name), which options — plus the
// canonicalisation rule that turns any equivalent spelling of a request
// into one stable byte string and one stable SHA-256 cache key.
//
// The canonical form is the contract that makes the service cacheable:
// every simulation in this repository is deterministic, so a request's
// canonical hash fully determines its response bytes. Canonicalize
// therefore (1) validates, (2) normalises — fills in the current schema
// version and strips fields that cannot change the result, such as the
// shard count, which only changes host wall-clock time — and (3) marshals
// the normalised struct with encoding/json, whose field order is fixed by
// the struct definition. Two requests that differ only in JSON field
// order, schema-version spelling (0 vs 1) or result-invariant options hash
// identically and share one cached response.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"gpuscale/internal/config"
)

// RequestVersion is the current wire-schema version emitted and accepted by
// this build. Version 0 in an incoming request means "current".
const RequestVersion = 1

// Request operations, one per service endpoint.
const (
	// OpSimulate runs one timing simulation and returns its statistics.
	OpSimulate = "simulate"
	// OpPredict runs the paper's scale-model prediction pipeline: simulate
	// the two scale models, collect the miss-rate curve (strong scaling
	// only), and predict every standard target size without ever
	// simulating it.
	OpPredict = "predict"
	// OpMRC collects a workload's miss-rate curve by functional simulation
	// across the five standard configurations.
	OpMRC = "mrc"
)

// TargetSpec selects the simulated system. Exactly one of SMs and Chiplets
// may be set; for OpPredict and OpMRC the whole spec is usually zero (the
// standard paper ladder), except that OpPredict accepts Chiplets == 16 to
// select the multi-chip-module case study.
type TargetSpec struct {
	// SMs selects a monolithic GPU scaled to this many SMs.
	SMs int `json:"sms,omitempty"`
	// Chiplets selects a multi-chip-module GPU with this many chiplets
	// (64 SMs each, the paper's Table V building block).
	Chiplets int `json:"chiplets,omitempty"`
}

// WorkloadSpec names a workload from the built-in suite. Workloads travel
// by name, not by value: the synthetic generators are deterministic
// functions of (benchmark, system size), so a name plus the target spec
// reproduces the exact instruction streams on any replica of the service.
type WorkloadSpec struct {
	// Bench is the benchmark abbreviation (dct, bfs, ht, …) — a Table II
	// strong-scaling benchmark, or with Weak a Table IV family.
	Bench string `json:"bench"`
	// Weak selects the weak-scaling variant, whose input scales with the
	// simulated system size.
	Weak bool `json:"weak,omitempty"`
}

// Resolve instantiates the named workload. totalSMs sizes the weak-scaling
// variant (total SMs across the whole target) and is ignored for
// strong-scaling benchmarks.
func (w WorkloadSpec) Resolve(totalSMs int) (Workload, error) {
	if w.Weak {
		wb, err := WeakBenchmarkByName(w.Bench)
		if err != nil {
			return nil, err
		}
		return wb.ForSMs(totalSMs), nil
	}
	b, err := BenchmarkByName(w.Bench)
	if err != nil {
		return nil, err
	}
	return b.Workload, nil
}

// Latency tiers for predict requests (RequestOptions.Tier). The tier
// routes the request inside the service; it never changes what a cycle
// response contains, so Canonicalize strips it from the cache key.
const (
	// TierCycle runs the cycle-accurate simulation pipeline (the default).
	TierCycle = "cycle"
	// TierAnalytic answers from the microsecond-scale analytical model
	// (internal/analytic) without ever simulating; the response carries a
	// confidence score.
	TierAnalytic = "analytic"
	// TierAuto answers analytically when the model is confident and
	// escalates to the cycle simulator otherwise — the escalated response
	// is byte-identical to a direct cycle-tier response.
	TierAuto = "auto"
)

// DefaultConfidenceThreshold is the auto-tier escalation gate: an analytic
// prediction whose confidence falls below it escalates to the cycle
// simulator. The gpuscaled operator can override it per daemon
// (-confidence-threshold); the in-process evaluator and CLIs use this
// default. The value sits between the strong-scaling families the model
// captures well (confidence ≥ 0.7) and the multi-chip-module cells it
// deliberately discounts (docs/ANALYTIC.md).
const DefaultConfidenceThreshold = 0.5

// RequestOptions tunes a simulate request. MaxCycles and
// WarmupInstructions change the reported statistics, so they are part of
// the canonical form; Shards only changes how the host computes the
// bit-identical result, so Canonicalize strips it (and the ignored Quantum).
type RequestOptions struct {
	// MaxCycles aborts the simulation with an error beyond this many
	// cycles; zero means no limit. Simulate only.
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// WarmupInstructions discards pre-warm-up statistics; monolithic
	// simulate only.
	WarmupInstructions uint64 `json:"warmup_instructions,omitempty"`
	// Shards is the intra-simulation shard count (SM groups on a
	// monolithic target, chiplet groups on an MCM). Results are
	// bit-identical at every setting (docs/PARALLELISM.md), so this field
	// is excluded from the canonical form; servers choose their own shard
	// count.
	Shards int `json:"shards,omitempty"`
	// Quantum is accepted for compatibility with clients written when
	// sharded runs had a relaxed-barrier mode: it is range-checked, ignored
	// and stripped from the canonical form, so it never reaches the hash.
	Quantum int `json:"quantum,omitempty"`
	// Tier selects the latency tier for predict requests: TierCycle
	// (default), TierAnalytic or TierAuto. The tier routes the request —
	// a cycle response's bytes are the same whether reached directly or by
	// auto escalation — so Canonicalize strips it; analytic responses are
	// cached under their own keyspace (AnalyticCacheKey).
	Tier string `json:"tier,omitempty"`
	// Uarch selects the microarchitecture variant: warp scheduler, L1 fill
	// granularity, NoC routing and issue width (docs/UARCH.md). Unlike
	// Shards/Quantum/Tier it CHANGES simulated timing, so Canonicalize
	// keeps it in the canonical form — two requests differing only here
	// hash differently and cache separate bodies. Nil or all-default means
	// the paper's Table III baseline and canonicalises to the field being
	// absent, so legacy requests hash exactly as they did before this field
	// existed.
	Uarch *UarchVariant `json:"uarch,omitempty"`
}

// Request is one prediction-service operation in the canonical wire
// schema. Build one programmatically or decode it with ParseRequest; hash
// it with Canonicalize; instantiate a simulate request with
// ResolveSimulation.
type Request struct {
	// Version is the wire-schema version: RequestVersion, or 0 meaning
	// "current".
	Version int `json:"version"`
	// Op is the operation: OpSimulate, OpPredict or OpMRC. The daemon
	// fills it from the endpoint path when empty.
	Op string `json:"op"`
	// Target selects the simulated system (see TargetSpec for per-op
	// rules).
	Target TargetSpec `json:"target"`
	// Workload names the workload.
	Workload WorkloadSpec `json:"workload"`
	// Options tunes simulate requests.
	Options RequestOptions `json:"options"`
}

// ParseRequest decodes a Request from JSON strictly: unknown fields and
// trailing data are errors, so typos in option names fail loudly instead
// of silently changing the cache key space.
func ParseRequest(data []byte) (Request, error) {
	var r Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Request{}, fmt.Errorf("gpuscale: parsing request: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Request{}, fmt.Errorf("gpuscale: trailing data after request object")
	}
	return r, nil
}

// Validate reports the first structural problem with the request, or nil
// if it describes a runnable operation.
func (r Request) Validate() error {
	if r.Version != 0 && r.Version != RequestVersion {
		return fmt.Errorf("gpuscale: unsupported request version %d (this build speaks %d)", r.Version, RequestVersion)
	}
	switch r.Op {
	case OpSimulate, OpPredict, OpMRC:
	case "":
		return fmt.Errorf("gpuscale: request has no op (want %q, %q or %q)", OpSimulate, OpPredict, OpMRC)
	default:
		return fmt.Errorf("gpuscale: unknown op %q", r.Op)
	}
	if r.Target.SMs < 0 || r.Target.Chiplets < 0 {
		return fmt.Errorf("gpuscale: negative target size")
	}
	if r.Workload.Bench == "" {
		return fmt.Errorf("gpuscale: request names no benchmark")
	}
	// Resolve the name now so unresolvable requests fail at validation
	// (HTTP 400) instead of polluting the cache key space.
	if _, err := r.Workload.Resolve(1); err != nil {
		return err
	}
	switch r.Op {
	case OpSimulate:
		switch {
		case r.Target.SMs > 0 && r.Target.Chiplets > 0:
			return fmt.Errorf("gpuscale: simulate target sets both sms and chiplets")
		case r.Target.SMs == 0 && r.Target.Chiplets == 0:
			return fmt.Errorf("gpuscale: simulate target sets neither sms nor chiplets")
		case r.Target.Chiplets > 0 && r.Options.WarmupInstructions > 0:
			return fmt.Errorf("gpuscale: warmup_instructions is not supported on MCM simulations")
		}
	case OpPredict:
		if r.Target.SMs != 0 {
			return fmt.Errorf("gpuscale: predict always targets the standard size ladder; leave target.sms unset")
		}
		if r.Target.Chiplets != 0 {
			if r.Target.Chiplets != 16 {
				return fmt.Errorf("gpuscale: MCM prediction supports only the 16-chiplet target, got %d", r.Target.Chiplets)
			}
			if !r.Workload.Weak {
				return fmt.Errorf("gpuscale: MCM prediction requires a weak-scaling family")
			}
		}
		if r.Options.MaxCycles != 0 || r.Options.WarmupInstructions != 0 {
			return fmt.Errorf("gpuscale: max_cycles and warmup_instructions do not apply to predict requests")
		}
	case OpMRC:
		if r.Target != (TargetSpec{}) {
			return fmt.Errorf("gpuscale: mrc samples the five standard configurations; leave target unset")
		}
		if r.Workload.Weak {
			return fmt.Errorf("gpuscale: mrc supports strong-scaling benchmarks only (weak prediction needs no curve)")
		}
		if r.Options.MaxCycles != 0 || r.Options.WarmupInstructions != 0 {
			return fmt.Errorf("gpuscale: max_cycles and warmup_instructions do not apply to mrc requests")
		}
	}
	if r.Options.MaxCycles < 0 {
		return fmt.Errorf("gpuscale: negative max_cycles")
	}
	if r.Options.Shards < 0 {
		return fmt.Errorf("gpuscale: negative shards")
	}
	if r.Options.Quantum < 0 {
		return fmt.Errorf("gpuscale: negative quantum")
	}
	switch r.Options.Tier {
	case "", TierCycle:
	case TierAnalytic, TierAuto:
		if r.Op != OpPredict {
			return fmt.Errorf("gpuscale: tier %q applies to predict requests only", r.Options.Tier)
		}
	default:
		return fmt.Errorf("gpuscale: unknown tier %q (want %q, %q or %q)", r.Options.Tier, TierCycle, TierAnalytic, TierAuto)
	}
	if r.Options.Uarch != nil {
		if err := r.Options.Uarch.Validate(); err != nil {
			return fmt.Errorf("gpuscale: %w", err)
		}
	}
	return nil
}

// Canonicalize validates r, normalises it — Version becomes
// RequestVersion, result-invariant options (Shards, Quantum, Tier) are
// stripped — and returns the canonical JSON encoding plus its
// lowercase-hex SHA-256, which the service and CLIs use as the cache key.
// Requests that can only differ in host-side execution strategy
// canonicalise identically. The microarchitecture variant is KEPT: it
// changes simulated timing, so each variant owns its own cache entry. An
// explicitly-spelled default variant ("gto", issue width 1, …) normalises
// to an absent field, hashing identically to a legacy request that
// predates the field.
func Canonicalize(r Request) (canon []byte, hash string, err error) {
	if err := r.Validate(); err != nil {
		return nil, "", err
	}
	n := r
	n.Version = RequestVersion
	n.Options.Shards = 0
	n.Options.Quantum = 0
	n.Options.Tier = ""
	if n.Options.Uarch != nil {
		v := n.Options.Uarch.Canonical()
		if v == (UarchVariant{}) {
			n.Options.Uarch = nil
		} else {
			n.Options.Uarch = &v
		}
	}
	canon, err = json.Marshal(n)
	if err != nil {
		return nil, "", fmt.Errorf("gpuscale: canonicalising request: %w", err)
	}
	sum := sha256.Sum256(canon)
	return canon, hex.EncodeToString(sum[:]), nil
}

// AnalyticCacheKey derives the cache key for the analytic-tier response to
// the request whose canonical hash is hash. Analytic bodies live in their
// own keyspace so they can never collide with (or shadow) the cycle
// response cached under the canonical hash itself.
func AnalyticCacheKey(hash string) string {
	sum := sha256.Sum256([]byte("analytic\x00" + hash))
	return hex.EncodeToString(sum[:])
}

// SimTarget is one simulation cell of a request in runnable form — a
// simulate request's target (ResolveSimulation) or one of a predict
// request's scale models (ScaleModels): exactly one of System and MCM is
// non-nil, Workload is instantiated for the cell's size, and Options
// carries the request's simulation options (shard count included — strip
// or override it server-side as policy dictates).
type SimTarget struct {
	// System is the monolithic configuration (nil for MCM requests).
	System *SystemConfig
	// MCM is the multi-chip-module configuration (nil for monolithic).
	MCM *ChipletConfig
	// Workload is the instantiated workload.
	Workload Workload
	// Options are the request's simulation options in functional form,
	// ready to pass to SimulateContext / SimulateMCMContext.
	Options []SimOption
}

// ResolveSimulation instantiates a simulate request: the scaled
// configuration with the request's uarch variant in it, the workload sized
// for it, and the simulation options.
// It fails on non-simulate requests; ScaleModels resolves a predict
// request's two scale models, and mrc requests sweep the standard
// configuration ladder.
func (r Request) ResolveSimulation() (SimTarget, error) {
	if err := r.Validate(); err != nil {
		return SimTarget{}, err
	}
	if r.Op != OpSimulate {
		return SimTarget{}, fmt.Errorf("gpuscale: ResolveSimulation on %q request", r.Op)
	}
	var opts []SimOption
	if r.Options.MaxCycles > 0 {
		opts = append(opts, WithMaxCycles(r.Options.MaxCycles))
	}
	if r.Options.WarmupInstructions > 0 { // monolithic only (Validate)
		opts = append(opts, WithWarmupInstructions(r.Options.WarmupInstructions))
	}
	if r.Options.Shards > 0 {
		opts = append(opts, WithShards(r.Options.Shards))
	}
	c, err := resolveCell(r.Workload, r.Target, r.Options.variant())
	if err != nil {
		return SimTarget{}, err
	}
	return c.target(opts), nil
}

// ScaleModels resolves a predict request into its two scale models,
// smallest first, and returns the size ladder they head: 8 and 16 SMs of
// {8, 16, 32, 64, 128}, or for the multi-chip-module case study
// (Target.Chiplets) 4 and 8 chiplets of {4, 8, 16}. The request's uarch
// variant is part of each model's configuration, so Options is empty, and a
// weak-scaling workload is sized by each model's total SMs. It is the
// predict-op sibling of ResolveSimulation.
func (r Request) ScaleModels() (sizes []float64, models [2]SimTarget, err error) {
	sizes, cells, err := r.scaleModels()
	if err != nil {
		return nil, models, err
	}
	for i, c := range cells {
		models[i] = c.target(nil)
	}
	return sizes, models, nil
}

// scaleModels is ScaleModels with the models held by value, so the
// analytic tier's per-request path allocates no configuration.
func (r Request) scaleModels() ([]float64, [2]cell, error) {
	var cells [2]cell
	if err := r.Validate(); err != nil {
		return nil, cells, err
	}
	if r.Op != OpPredict {
		return nil, cells, fmt.Errorf("gpuscale: ScaleModels on %q request", r.Op)
	}
	ladder, chiplets := config.StandardSizes, r.Target.Chiplets > 0
	if chiplets {
		ladder = config.ChipletStandardSizes
	}
	v := r.Options.variant()
	for i, n := range ladder[:2] {
		t := TargetSpec{SMs: n}
		if chiplets {
			t = TargetSpec{Chiplets: n}
		}
		c, err := resolveCell(r.Workload, t, v)
		if err != nil {
			return nil, cells, err
		}
		cells[i] = c
	}
	sizes := make([]float64, len(ladder))
	for i, n := range ladder {
		sizes[i] = float64(n)
	}
	return sizes, cells, nil
}

// variant is the requested microarchitecture variant; zero when absent.
func (o RequestOptions) variant() UarchVariant {
	if o.Uarch == nil {
		return UarchVariant{}
	}
	return *o.Uarch
}

// cell is one resolved simulation cell held by value: the monolithic
// configuration, or the multi-chip-module one when mcm.NumChiplets > 0, and
// the workload sized for it.
type cell struct {
	sys SystemConfig
	mcm ChipletConfig
	w   Workload
}

// resolveCell builds the cell t selects — t.SMs scaled from the Table III
// baseline, or t.Chiplets scaled from the Table V package — with variant v
// in its hardware and spec's workload sized by its total SMs.
func resolveCell(spec WorkloadSpec, t TargetSpec, v UarchVariant) (cell, error) {
	var c cell
	var err error
	total := t.SMs
	if t.Chiplets > 0 {
		base := Target16Chiplet()
		base.Chiplet.Uarch = v
		if c.mcm, err = ScaleChiplets(base, t.Chiplets); err != nil {
			return cell{}, err
		}
		total = c.mcm.TotalSMs()
	} else {
		base := Baseline128()
		base.Uarch = v
		if c.sys, err = Scale(base, t.SMs); err != nil {
			return cell{}, err
		}
	}
	if c.w, err = spec.Resolve(total); err != nil {
		return cell{}, err
	}
	return c, nil
}

// target is c in SimTarget form, carrying opts.
func (c cell) target(opts []SimOption) SimTarget {
	t := SimTarget{Workload: c.w, Options: opts}
	if c.mcm.NumChiplets > 0 {
		t.MCM = &c.mcm
	} else {
		t.System = &c.sys
	}
	return t
}
