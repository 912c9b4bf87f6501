package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// spec is BENCHMARK.json: the single place metric names, units,
// directions and bounds are declared. The harness reads it so that
// what it prints cannot drift from what the file promises.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specEntry  `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report selects the declared metrics from the measured ones, in
// declaration order; a declared metric nobody measured is a bug in the
// harness, not a zero.
func report(declared []metricSpec, measured map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(declared))
	for _, m := range declared {
		v, ok := measured[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", m.Name)
		}
		out[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation; xs
// need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0 (the metric does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hitRate is hits/(hits+misses); a window that made no lookup missed
// nothing and reports 1.
func hitRate(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 1
	}
	return hits / (hits + misses)
}

// lowDecile is the value a tenth of xs lie below. The timed metrics are
// low deciles, not medians: what delays an op on this box beyond its
// own work — another tenant of the host, a GC cycle in one of 17
// processes, a scheduling hiccup — only ever adds time, so the fast end
// of a window repeats from run to run where its middle does not.
func lowDecile(xs []float64) float64 { return quantile(xs, 0.1) }

// endToEnd derives the end-to-end metrics from the set-up times and
// the timed window. Every op in w.ops succeeded and repeated the first
// reply's model cost exactly, so the three model metrics are read off
// the service's expectation.
func endToEnd(setups []time.Duration, s *service, w *window) map[string]float64 {
	lat, ref := make([]float64, len(w.ops)), make([]float64, len(w.ops))
	for i, r := range w.ops {
		lat[i], ref[i] = ms(r.latency), ms(r.ref)
	}
	sec := make([]float64, len(setups))
	for i, d := range setups {
		sec[i] = d.Seconds()
	}
	return map[string]float64{
		"latency_vs_ref":  lowDecile(lat) / lowDecile(ref),
		"setup_s":         median(sec),
		"rounds_per_op":   float64(s.expected[0].rounds),
		"mbit_per_op":     float64(s.expected[0].bits) / 1e6,
		"max_load_tuples": float64(s.expected[0].maxLoad),
	}
}

// clientLayer derives the harness-side and process-accounting layer
// metrics of the same window.
func clientLayer(wl workload, s *service, w *window) map[string]float64 {
	var lat, ref, kb, serveCPU, workerCPU []float64
	var legs [4][]float64
	for _, r := range w.ops {
		lat, ref = append(lat, ms(r.latency)), append(ref, ms(r.ref))
		kb = append(kb, float64(r.respBytes)/1024)
		serveCPU, workerCPU = append(serveCPU, r.serveCPU), append(workerCPU, r.workerCPU)
		for i, d := range r.legs {
			legs[i] = append(legs[i], ms(d))
		}
	}
	n := float64(len(w.ops))
	m := map[string]float64{
		"client.ops_per_s":            ratio(n, w.wall.Seconds()),
		"client.latency_p10_ms":       lowDecile(lat),
		"client.latency_p50_ms":       median(lat),
		"client.latency_p90_ms":       quantile(lat, 0.9),
		"client.latency_max_ms":       quantile(lat, 1),
		"client.reference_p10_ms":     lowDecile(ref),
		"client.response_kb":          median(kb),
		"client.upload_ms":            ms(s.upload),
		"client.cold_query_ms":        ms(s.cold),
		"client.ingest_upload_ms":     0,
		"client.ingest_cold_query_ms": 0,
		"client.ingest_delta_ms":      0,
		"client.ingest_requery_ms":    0,
		"serve.plan_cache_hit_rate":   hitRate(w.planHits, w.planMisses),
		"serve.stats_cache_hit_rate":  hitRate(w.statsHits, w.statsMisses),
		"serve.plan_lookups_per_op":   ratio(w.planHits+w.planMisses, n),
		"serve.cpu_ms_per_op":         median(serveCPU),
		"serve.peak_rss_mb":           w.serveRSS,
		"dist.worker_cpu_ms_per_op":   median(workerCPU),
		"dist.worker_peak_rss_mb":     w.workerRSS,
		"plan.load_vs_predicted":      0,
		"plan.load_vs_budget":         0,
	}
	if wl.ingest {
		m["client.ingest_upload_ms"] = median(legs[0])
		m["client.ingest_cold_query_ms"] = median(legs[1])
		m["client.ingest_delta_ms"] = median(legs[2])
		m["client.ingest_requery_ms"] = median(legs[3])
	}
	if t := w.trace; t != nil {
		// The trace of the window's last query carries the planner's
		// prediction and budget (both 0 for Datalog programs, which have
		// no single plan) and, on the engines that thread the trace
		// through, that query's own per-worker loads.
		load := 0.0
		for _, sp := range t.Spans {
			load = max(load, float64(sp.LoadTuples))
		}
		if load == 0 {
			load = float64(s.expected[0].maxLoad)
		}
		m["plan.load_vs_predicted"] = ratio(load, t.PredictedLoadTuples)
		m["plan.load_vs_budget"] = ratio(load, float64(t.BudgetLoadTuples))
	}
	return m
}

// writeOps writes the timed window op by op — when each ended, its
// latency, the CPU time spent while it was in flight and the reference
// round that followed — so that a distribution can be looked at after
// the run, not only its summary.
func writeOps(path string, w *window) error {
	type row struct {
		EndS      float64 `json:"end_s"`
		LatencyMS float64 `json:"latency_ms"`
		CPUMS     float64 `json:"cpu_ms"`
		RefMS     float64 `json:"ref_ms"`
	}
	rows := make([]row, len(w.ops))
	for i, r := range w.ops {
		rows[i] = row{EndS: r.end.Seconds(), LatencyMS: ms(r.latency), CPUMS: r.serveCPU + r.workerCPU, RefMS: ms(r.ref)}
	}
	raw, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
