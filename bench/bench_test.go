package main

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/serve"
)

// smokeScale runs the whole protocol — every workload, untraced and
// traced — in a unit-test budget and without binaries.
var smokeScale = scale{
	P: 4, TriN: 300, ChainN: 300, SkewN: 300, IngestN: 300,
	ReachPaths: 20, IngestCycles: 2, WarmUps: 1, SetupReps: 1, ProbeReps: 1, Replays: 2,
}

// inProcessTarget stands the system up without processes: dist.Serve
// listeners for the pool and an httptest serve.Server per set-up.
func inProcessTarget(t *testing.T, p int) *target {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, p)
	tgt := &target{}
	for i := 0; i < p; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tgt.workers = append(tgt.workers, ln.Addr().String())
		go func() {
			if err := dist.Serve(ctx, ln); err != nil {
				t.Errorf("dist.Serve: %v", err)
			}
			done <- struct{}{}
		}()
	}
	tgt.stop = func() {
		cancel()
		for i := 0; i < p; i++ {
			<-done
		}
	}
	tgt.startServe = func(context.Context) (string, int, func(), error) {
		hs := httptest.NewServer(serve.New(serve.Config{WorkerAddrs: tgt.workers}).Handler())
		return hs.URL, os.Getpid(), hs.Close, nil
	}
	return tgt
}

func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}
	tgt := inProcessTarget(t, smokeScale.P)
	defer tgt.stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	b := &bench{spec: sp, sc: smokeScale, tgt: tgt, seed: 1, seconds: 0.02, out: t.TempDir()}

	for i, wl := range workloads {
		if sp.Workloads[i].Name != wl.name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the harness", i, sp.Workloads[i].Name, wl.name)
		}
		// runWorkload fails on a declared metric it did not measure, so
		// a result with the declared count carries every name.
		first, err := b.runWorkload(ctx, wl, false)
		if err != nil {
			t.Fatal(err)
		}
		again, err := b.runWorkload(ctx, wl, false)
		if err != nil {
			t.Fatal(err)
		}
		layers, err := b.runWorkload(ctx, wl, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(first.Metrics) != len(sp.EndToEnd) || len(layers.Metrics) != len(sp.PerLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, declared %d and %d",
				wl.name, len(first.Metrics), len(layers.Metrics), len(sp.EndToEnd), len(sp.PerLayer))
		}
		for _, r := range []*result{first, again, layers} {
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s: correct=%v, %d of %d ops failed", wl.name, r.Correct, r.Failed, r.Attempted)
			}
		}
		for _, name := range []string{"rounds_per_op", "mbit_per_op", "max_load_tuples"} {
			if first.Metrics[name] != again.Metrics[name] || first.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, then %v with the same seed", wl.name, name, first.Metrics[name], again.Metrics[name])
			}
		}
		checkSpanTree(t, filepath.Join(b.out, "spans-"+wl.name+".json"))

		gen := func(seed uint64) map[string]string {
			in, err := wl.gen(rand.New(rand.NewPCG(seed, 0xbe9c4)), smokeScale)
			if err != nil {
				t.Fatal(err)
			}
			return in.cycles[0].csv
		}
		if !reflect.DeepEqual(gen(1), gen(1)) {
			t.Errorf("%s: one seed gave two different inputs", wl.name)
		}
		if reflect.DeepEqual(gen(1), gen(2)) {
			t.Errorf("%s: two seeds gave the same input", wl.name)
		}
	}
}

// checkSpanTree asserts the span file is a forest: every parent exists
// and every child lies inside its parent's interval.
func checkSpanTree(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	roots := map[string]int{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent == 0 {
			roots[s.Name]++
		}
	}
	if roots["probe"] != 1 || roots["request"] != smokeScale.Replays || len(roots) != 2 {
		t.Errorf("%s: roots %v, want one probe and %d requests", path, roots, smokeScale.Replays)
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		parent, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s: span %d (%s) has unknown parent %d", path, s.ID, s.Name, s.Parent)
		} else if s.StartNs < parent.StartNs || s.EndNs > parent.EndNs || s.Request != parent.Request {
			t.Errorf("%s: span %d (%s) is not nested in its parent %d (%s)", path, s.ID, s.Name, parent.ID, parent.Name)
		}
	}
}
