// Command bench is the repository's end-to-end benchmark: it drives a
// real mpcserve process executing on 16 real mpcworker processes over
// HTTP and TCP through five named workloads, verifies every reply
// against answers computed independently in the harness, and prints
// the metrics BENCHMARK.json declares. See README.md in this directory
// for the protocol, the workloads and the metric glossary.
//
// Usage (through run.sh, which builds the three binaries first):
//
//	bash bench/run.sh --workload tri_warm --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1 --out bench/out            # every workload, untraced then traced
//	bash bench/run.sh --seed 1 --repeat 2                 # repeatability check of the gated metrics
//
// With --workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// binDir is where run.sh leaves mpcserve and mpcworker, relative to the
// repository root the harness runs from.
const binDir = ".bench_build/bin"

// result is one run of one workload: the last stdout line of a
// --workload run and one entry of a result file.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is the result file written to --out and checked in under
// history/: every workload's untraced and traced result plus what is
// needed to read the numbers later.
type record struct {
	PR         int                          `json:"pr"`
	Seed       uint64                       `json:"seed"`
	RunSeconds float64                      `json:"run_seconds"`
	Nproc      int                          `json:"nproc"`
	GoVersion  string                       `json:"go_version"`
	Scale      map[string]int               `json:"scale"`
	Workloads  map[string]map[string]result `json:"workloads"`
	Claim      *string                      `json:"claim"`
}

func main() {
	var (
		only    = flag.String("workload", "", "run only this workload and print its result as the last line (default: all)")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: also probe the layers and replay traced requests, print the per-layer metrics")
		out     = flag.String("out", "bench/out", "directory for result and span files")
		repeat  = flag.Int("repeat", 1, "run the untraced phase this many times and fail when a gated metric moves by more than its bound")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *only, *seed, *seconds, *traced == 1, *out, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, only string, seed uint64, seconds float64, traced bool, out string, repeat int) error {
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	if flag.NArg() > 0 || repeat < 1 {
		return fmt.Errorf("unexpected arguments %v or -repeat %d", flag.Args(), repeat)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	selected := workloads
	if only != "" {
		w, ok := findWorkload(only)
		if !ok {
			return fmt.Errorf("unknown workload %q", only)
		}
		selected = []workload{w}
	}
	tgt, err := spawnTarget(ctx, binDir, fullScale.P)
	if err != nil {
		return err
	}
	defer tgt.stop()
	b := &bench{spec: sp, sc: fullScale, tgt: tgt, seed: seed, seconds: seconds, out: out}

	if only != "" && repeat == 1 {
		res, err := b.runWorkload(ctx, selected[0], traced)
		if err != nil {
			return err
		}
		printResult(os.Stderr, selected[0].name, res)
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed", selected[0].name, res.Failed, res.Attempted)
		}
		return nil
	}

	rec := record{
		PR: 12, Seed: seed, RunSeconds: seconds, Nproc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Scale: map[string]int{
			"p": b.sc.P, "tri_n": b.sc.TriN, "chain4_n": b.sc.ChainN, "skew_n": b.sc.SkewN,
			"reach_edges": b.sc.ReachPaths * reachPathEdges, "ingest_n": b.sc.IngestN,
		},
		Workloads: map[string]map[string]result{},
	}
	failed := 0
	var moved []string
	for _, wl := range selected {
		rec.Workloads[wl.name] = map[string]result{}
		var runs []*result
		for i := 0; i < repeat; i++ {
			res, err := b.runWorkload(ctx, wl, false)
			if err != nil {
				return err
			}
			printResult(os.Stdout, fmt.Sprintf("%s (untraced run %d)", wl.name, i+1), res)
			failed += res.Failed
			runs = append(runs, res)
		}
		rec.Workloads[wl.name]["end_to_end"] = *runs[len(runs)-1]
		moved = append(moved, compareRuns(sp, wl.name, runs)...)
		if repeat == 1 {
			res, err := b.runWorkload(ctx, wl, true)
			if err != nil {
				return err
			}
			printResult(os.Stdout, wl.name+" (traced run)", res)
			failed += res.Failed
			rec.Workloads[wl.name]["per_layer"] = *res
		}
	}
	raw, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "result.json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	for _, row := range moved {
		fmt.Println("NOT REPEATABLE:", row)
	}
	if failed > 0 || len(moved) > 0 {
		return fmt.Errorf("%d failed ops, %d gated metrics outside their bound between runs", failed, len(moved))
	}
	return nil
}

// bench is one invocation's fixed context.
type bench struct {
	spec    *spec
	sc      scale
	tgt     *target
	seed    uint64
	seconds float64
	out     string
}

// runWorkload runs the protocol once for one workload. Untraced, it
// sets up SetupReps times (fresh service each, the last one serves the
// window) and reports the end-to-end metrics. Traced, it sets up once,
// runs the same window for the client- and process-side layer numbers,
// then probes the layers and replays traced requests in-process, and
// reports the per-layer metrics.
func (b *bench) runWorkload(ctx context.Context, wl workload, traced bool) (*result, error) {
	// Phase 1: inputs and reference answers, from the seed alone.
	in, err := wl.gen(rand.New(rand.NewPCG(b.seed, 0xbe9c4)), b.sc)
	if err != nil {
		return nil, fmt.Errorf("%s: generate inputs: %w", wl.name, err)
	}
	reps := b.sc.SetupReps
	if traced {
		reps = 1
	}
	var setups []time.Duration
	var svc *service
	for i := 0; i < reps; i++ {
		if svc != nil {
			svc.stop()
		}
		// Phases 2–5.
		if svc, err = setUp(ctx, b.tgt, wl, in, b.sc); err != nil {
			return nil, err
		}
		setups = append(setups, svc.setup)
	}
	// Phase 8 on every exit path.
	defer svc.stop()
	// Phases 6 and 7.
	w, err := runWindow(ctx, b.tgt, svc, wl, in, b.seconds)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	if w.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: first failed op: %v\n", wl.name, w.firstErr)
	}
	if len(w.ops) == 0 {
		return nil, fmt.Errorf("%s: no op succeeded in the timed window: %w", wl.name, errors.Join(w.firstErr, ctx.Err()))
	}
	if err := writeOps(filepath.Join(b.out, "ops-"+wl.name+".json"), w); err != nil {
		return nil, err
	}
	measured := endToEnd(setups, svc, w)
	declared := b.spec.EndToEnd
	if traced {
		svc.stop() // the probes want the machine to themselves
		measured = clientLayer(wl, svc, w)
		latency := measured["client.latency_p50_ms"]
		rec := newRecorder()
		p, err := newProber(ctx, rec, b.sc, wl, in, b.tgt.workers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		if err := p.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		if err := p.replay(latency); err != nil {
			return nil, fmt.Errorf("%s: traced replay: %w", wl.name, err)
		}
		for k, v := range p.out {
			measured[k] = v
		}
		if err := rec.write(filepath.Join(b.out, "spans-"+wl.name+".json")); err != nil {
			return nil, err
		}
		declared = b.spec.PerLayer
	}
	metrics, err := report(declared, measured)
	if err != nil {
		return nil, err
	}
	return &result{Correct: w.failed == 0, Attempted: len(w.ops) + w.failed, Failed: w.failed, Metrics: metrics}, nil
}

// printResult prints every metric by name with its unit.
func printResult(f *os.File, title string, res *result) {
	fmt.Fprintf(f, "== %s: %d ops attempted, %d failed\n", title, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(f, "   %-34s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
}

// compareRuns returns one row per gated metric whose worst run is
// worse than its best run by more than the metric's bound; a metric
// with bound 0 must repeat exactly.
func compareRuns(sp *spec, workload string, runs []*result) []string {
	var rows []string
	for _, m := range sp.EndToEnd {
		lo, hi := runs[0].Metrics[m.Name].Value, runs[0].Metrics[m.Name].Value
		for _, r := range runs[1:] {
			lo, hi = min(lo, r.Metrics[m.Name].Value), max(hi, r.Metrics[m.Name].Value)
		}
		// The best run is the lowest value, or the highest when higher
		// is better; either way the gap is measured against the best.
		best, worst := lo, hi
		if m.Better == "higher" {
			best, worst = hi, lo
		}
		if gap := (hi - lo) / best; gap > *m.Bound {
			rows = append(rows, fmt.Sprintf("%s %s: best %.4f, worst %.4f %s, bound %.2f", workload, m.Name, best, worst, m.Unit, *m.Bound))
		}
	}
	return rows
}
