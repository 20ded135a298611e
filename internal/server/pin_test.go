package server

// Response bytes pinned across builds. The store replays bodies written by
// whichever build computed them, so a body must not change for a given
// canonical request unless the change is deliberate. These requests all
// answer from the analytic tier (no simulation), so the test runs under
// -short; between them they reach every region of the predictor, both
// scaling modes, the multi-chip-module ladder, a microarchitecture variant
// and an auto request the model answers itself.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gpuscale"
)

func TestPredictBodiesPinned(t *testing.T) {
	twoLevel := gpuscale.UarchVariant{Scheduler: gpuscale.SchedTwoLevel}
	cases := []struct {
		name string
		req  gpuscale.Request
		sha  string
	}{
		{"ht", predictReq("ht", false, 0, gpuscale.TierAnalytic, nil),
			"94b902fd7dfd4dc28f3e8249e05f3a89ff15431fc097ef48488bc00ebe240a8c"},
		{"dct", predictReq("dct", false, 0, gpuscale.TierAnalytic, nil),
			"60971cd753417601dbce858a3b146598242d2778e4969f29e6bb428eefc229e9"},
		{"va", predictReq("va", false, 0, gpuscale.TierAnalytic, nil),
			"acdf25e67bae961f3dd949f4ed43feda18f99257c8d6fa628e9bed17358a5818"},
		{"btree", predictReq("btree", false, 0, gpuscale.TierAnalytic, nil),
			"b9c8f61afd19ac61a8a656b9a5dbeb0a057849cd09aa77dd30937b93fc901274"},
		{"bfs-weak", predictReq("bfs", true, 0, gpuscale.TierAnalytic, nil),
			"a34f566396eee85f24358ec0a3ce4d0724e077cd494e776edba019ef3b4a455d"},
		{"va-weak-16c", predictReq("va", true, 16, gpuscale.TierAnalytic, nil),
			"0bdba1586e702873941d2aaa701f88900e145700c34907017b1cd80d360f7b6b"},
		{"dct-two-level", predictReq("dct", false, 0, gpuscale.TierAnalytic, &twoLevel),
			"e61c0d10a2011d8365885f33427283c58b72da0e84db21bb09f10074a7b6d7dc"},
		{"bs-auto", predictReq("bs", false, 0, gpuscale.TierAuto, nil),
			"e3f88318944e9e225aa97ea84ef597c64134d8d99565b5a364a04996ccd918d7"},
	}
	for _, c := range cases {
		body, _, err := EvalLocal(context.Background(), c.req, 1, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != c.sha {
			t.Errorf("%s: body sha256 %s, want %s\n%s", c.name, got, c.sha, body)
		}
	}
}

func predictReq(bench string, weak bool, chiplets int, tier string, v *gpuscale.UarchVariant) gpuscale.Request {
	return gpuscale.Request{
		Op:       gpuscale.OpPredict,
		Target:   gpuscale.TargetSpec{Chiplets: chiplets},
		Workload: gpuscale.WorkloadSpec{Bench: bench, Weak: weak},
		Options:  gpuscale.RequestOptions{Tier: tier, Uarch: v},
	}
}
