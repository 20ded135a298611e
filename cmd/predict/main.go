// Command predict runs the paper's scale-model prediction in two modes.
//
// Service mode (-bench) speaks the canonical wire API: it builds a
// gpuscale.Request, evaluates it either against a running gpuscaled
// daemon (-server URL, POST /v1/predict) or in-process with the very same
// evaluator the daemon uses, and renders the PredictResponse — scale-model
// IPCs, correction factor, and the predicted target ladder with all four
// baseline extrapolations. The response is byte-identical between the two
// paths (and across daemon cache hits), because both are keyed by the same
// canonical request hash. -json dumps the raw response body instead of the
// table.
//
//	predict -bench dct                      # simulate 8+16 SM scale models locally, predict 32/64/128
//	predict -bench bfs -weak                # weak scaling
//	predict -bench va -weak -chiplets 16    # MCM case study (4c+8c models predict 16c)
//	predict -bench dct -uarch two-level     # non-default microarchitecture (docs/UARCH.md)
//	predict -bench dct -server http://localhost:8372
//
// Numeric mode is the equivalent of the paper artifact's scaleModel.py:
// given the IPC of two scale models and the workload's MPKI at every
// system size, it predicts target-system performance with no simulation at
// all:
//
//	predict -small-sms 8 -fmem 0.45 220 410 8.1 7.9 7.6 7.2 0.4
//
// where the first two positional values are the small and large scale-model
// IPCs and the rest is the miss-rate curve (MPKI for the scale models and
// each target, smallest system first). -fmem supplies the large scale
// model's memory-stall fraction, required only when the curve has a cliff
// beyond the scale models (-fmem 0 is a measured value, not an absent
// one). -weak switches to weak scaling (no curve
// needed). -quiet (shared convention, see cmd/internal/cliutil) suppresses
// the preamble so only the prediction table is printed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"gpuscale"
	"gpuscale/cmd/internal/cliutil"
	"gpuscale/internal/core"
	"gpuscale/internal/server"
)

func main() {
	var (
		bench    = flag.String("bench", "", "service mode: predict this benchmark from simulated scale models")
		chiplets = flag.Int("chiplets", 0, "service mode: 16 selects the MCM case study (requires -weak)")
		srvURL   = flag.String("server", "", "service mode: gpuscaled base URL (default: evaluate in-process)")
		tier     = flag.String("tier", "", "service mode: latency tier (cycle, analytic, auto); auto answers analytically and escalates to the simulator when confidence is low")
		jsonOut  = flag.Bool("json", false, "service mode: print the raw JSON response body")
		uarchStr = flag.String("uarch", "", "service mode: microarchitecture variant, e.g. \"two-level,sectored,deflect,iw=2\" (empty = Table III baseline; part of the request hash)")
		smallSMs = flag.Int("small-sms", 8, "numeric mode: size (SMs or chiplets) of the smallest scale model; the large one is twice as big")
		fmem     = flag.Float64("fmem", 0, "numeric mode: memory-stall fraction of the largest scale model (required for a cliff beyond the scale models; 0 is a measured value)")
		weak     = flag.Bool("weak", false, "weak-scaling scenario")
		parallel = cliutil.Parallel(flag.CommandLine)
		quiet    = cliutil.Quiet(flag.CommandLine)
	)
	flag.Parse()

	if *bench != "" {
		if err := runService(*bench, *weak, *chiplets, *srvURL, *tier, *uarchStr, *parallel, *jsonOut, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, "predict:", err)
			os.Exit(1)
		}
		return
	}
	fmemSet := false
	flag.Visit(func(f *flag.Flag) { fmemSet = fmemSet || f.Name == "fmem" })
	runNumeric(*smallSMs, *fmem, fmemSet, *weak, *quiet)
}

// runService evaluates a canonical predict request — remotely against a
// gpuscaled daemon, or in-process through the daemon's own evaluator.
func runService(bench string, weak bool, chiplets int, srvURL, tier, uarchStr string, parallel int, jsonOut, quiet bool) error {
	req := gpuscale.Request{
		Op:       gpuscale.OpPredict,
		Target:   gpuscale.TargetSpec{Chiplets: chiplets},
		Workload: gpuscale.WorkloadSpec{Bench: bench, Weak: weak},
		Options:  gpuscale.RequestOptions{Tier: tier},
	}
	if uarchStr != "" {
		v, err := gpuscale.ParseUarch(uarchStr)
		if err != nil {
			return err
		}
		req.Options.Uarch = &v
	}
	var (
		body []byte
		hash string
		err  error
	)
	if srvURL != "" {
		body, hash, err = postPredict(srvURL, req)
	} else {
		body, hash, err = server.EvalLocal(context.Background(), req, parallel, 0)
	}
	if err != nil {
		return err
	}
	if jsonOut {
		fmt.Printf("%s\n", body)
		return nil
	}
	var resp server.PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	unit := "SMs"
	if resp.MCM {
		unit = "chiplets"
	}
	if !quiet {
		sm := resp.ScaleModels
		fmt.Printf("request:      %s\n", hash)
		if resp.Tier != "" {
			fmt.Printf("tier:         %s (confidence %.2f)\n", resp.Tier, resp.Confidence)
		}
		fmt.Printf("scale models: %.0f %s (IPC %.2f), %.0f %s (IPC %.2f); correction factor C = %.3f\n",
			sm[0].Size, unit, sm[0].IPC, sm[1].Size, unit, sm[1].IPC, resp.CorrectionFactor)
		if resp.Mode == "strong" {
			if i, ok := gpuscale.DetectCliff(resp.MPKI, 0, 0); ok {
				fmt.Printf("miss-rate cliff between %d and %d SMs\n", 8<<i, 8<<(i+1))
			} else {
				fmt.Println("no miss-rate cliff detected")
			}
		}
	}
	printTable(resp.Predictions)
	return nil
}

// postPredict POSTs the request to a daemon and returns (body, hash).
func postPredict(base string, req gpuscale.Request) ([]byte, string, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, "", err
	}
	resp, err := http.Post(strings.TrimRight(base, "/")+"/v1/predict", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		var e server.ErrorResponse
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return nil, "", fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, e.Error)
		}
		return nil, "", fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Request-Hash"), nil
}

// printTable renders predictions in the classic scaleModel.py layout.
func printTable(preds []server.PredictionPoint) {
	fmt.Printf("\n%-8s %-12s %-12s %-12s %-12s %-12s %s\n",
		"size", "scale-model", "log", "proportional", "linear", "power-law", "region")
	for _, p := range preds {
		fmt.Printf("%-8.0f %-12.2f %-12.2f %-12.2f %-12.2f %-12.2f %s\n",
			p.Size,
			p.IPC,
			p.Baselines["logarithmic"],
			p.Baselines["proportional"],
			p.Baselines["linear"],
			p.Baselines["power-law"],
			p.Region)
	}
}

// runNumeric is the artifact-equivalent pure-math path.
func runNumeric(smallSMs int, fmem float64, fmemSet, weak, quiet bool) {
	args := flag.Args()
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "predict: need at least <smallIPC> <largeIPC> [mpki...] (or -bench for service mode)")
		os.Exit(2)
	}
	vals := make([]float64, len(args))
	for i, a := range args {
		v, err := strconv.ParseFloat(a, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "predict: bad value %q: %v\n", a, err)
			os.Exit(2)
		}
		vals[i] = v
	}
	smallIPC, largeIPC := vals[0], vals[1]
	mpki := vals[2:]

	mode := gpuscale.StrongScaling
	nTargets := len(mpki) - 2
	if weak {
		mode = gpuscale.WeakScaling
		if nTargets < 1 {
			nTargets = 3 // default to 4x, 8x, 16x targets under weak scaling
		}
	} else if nTargets < 1 {
		fmt.Fprintln(os.Stderr, "predict: strong scaling needs MPKI for both scale models and at least one target")
		os.Exit(2)
	}

	sizes := make([]float64, 2+nTargets)
	sizes[0] = float64(smallSMs)
	for i := 1; i < len(sizes); i++ {
		sizes[i] = sizes[i-1] * 2
	}
	in := gpuscale.PredictionInput{
		Sizes:     sizes,
		SmallIPC:  smallIPC,
		LargeIPC:  largeIPC,
		FMemLarge: fmem,
		Mode:      mode,
	}
	if !weak {
		in.MPKI = mpki
	}
	// Eq. 3 reads the large scale model's stall fraction at a cliff beyond
	// the scale models. Here it comes from the user, as in the paper's
	// tool, so an absent -fmem is asked for rather than read as 0.
	if i, ok := gpuscale.DetectCliff(in.MPKI, 0, 0); ok && i >= 1 && !fmemSet {
		fmt.Fprintf(os.Stderr, "predict: miss-rate cliff between %.0f and %.0f SMs; f_mem is required (Eq. 3): pass the large scale model's memory-stall fraction as -fmem\n", sizes[i], sizes[i+1])
		os.Exit(1)
	}
	targets, err := core.PredictTargets(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predict:", err)
		os.Exit(1)
	}

	if !quiet {
		c := gpuscale.CorrectionFactor(sizes[0], smallIPC, sizes[1], largeIPC)
		fmt.Printf("scale models: %.0f SMs (IPC %.2f), %.0f SMs (IPC %.2f); correction factor C = %.3f\n",
			sizes[0], smallIPC, sizes[1], largeIPC, c)
		if !weak {
			if i, ok := gpuscale.DetectCliff(in.MPKI, 0, 0); ok {
				fmt.Printf("miss-rate cliff between %.0f and %.0f SMs\n", sizes[i], sizes[i+1])
			} else {
				fmt.Println("no miss-rate cliff detected")
			}
		}
	}
	preds := make([]server.PredictionPoint, len(targets))
	for i, t := range targets {
		preds[i] = server.PredictionPoint{Size: t.Size, IPC: t.IPC, Region: t.Region.String(), Baselines: t.Baselines}
	}
	printTable(preds)
}
