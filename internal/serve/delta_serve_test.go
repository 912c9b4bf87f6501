package serve_test

// Tests of the streaming-ingest and continuous-query surface: delta
// versioning and plan-cache keying, warm materialized answers against
// ground truth across delta batches, the planner's skew-engine flip
// under heavy-hitter drift (incremental statistics must flip it
// exactly when from-scratch statistics would), and a concurrency
// regression mixing deltas, warm reads, and cold queries under -race.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/serve"
)

// postJSON posts v to url and decodes the JSON reply into out,
// returning the status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// getJSON fetches url and decodes the JSON reply into out.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// answersMatch compares HTTP answer rows against ground-truth tuples.
func answersMatch(rows [][]int, truth []relation.Tuple) bool {
	if len(rows) != len(truth) {
		return false
	}
	for i, row := range rows {
		if len(row) != len(truth[i]) {
			return false
		}
		for j, v := range row {
			if v != truth[i][j] {
				return false
			}
		}
	}
	return true
}

// freshTriangle returns values (a,b,c) in [1,n] such that S1(a,b),
// S2(b,c) and S3(c,a) are all absent from db — appending them adds
// exactly one new triangle, and deleting any of them afterwards
// removes a tuple with exactly one occurrence.
func freshTriangle(t *testing.T, db *relation.Database, n int) (int, int, int) {
	t.Helper()
	has := func(rel string, x, y int) bool {
		r, ok := db.Relation(rel)
		if !ok {
			t.Fatalf("relation %s missing", rel)
		}
		for _, tup := range r.Rows() {
			if tup[0] == x && tup[1] == y {
				return true
			}
		}
		return false
	}
	for a := 1; a <= n; a++ {
		for b := 1; b <= n; b++ {
			for c := 1; c <= n; c++ {
				if !has("S1", a, b) && !has("S2", b, c) && !has("S3", c, a) {
					return a, b, c
				}
			}
		}
	}
	t.Fatal("no fresh triangle in the dataset")
	return 0, 0, 0
}

// TestDeltaVersioningAndPlanCache drives the delta endpoint end to
// end: versions advance, deltas land in query answers, the plan cache
// keys on the version (a delta forces a re-plan, a repeat at the same
// version hits), and post-delta statistics are pre-installed (no
// collection scan, statsCached stays true).
func TestDeltaVersioningAndPlanCache(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{DefaultP: 4, MaxAnswers: 100000}, 12)

	q, err := query.ParseFamily("C3")
	if err != nil {
		t.Fatal(err)
	}
	ask := func() *serve.QueryResponse {
		out, _ := postQuery(t, ts.URL, serve.QueryRequest{Dataset: "tri", Family: "C3"})
		return out
	}
	first := ask()
	if first.PlanCached {
		t.Fatal("first query reported a cached plan")
	}

	// Append one provably fresh triangle.
	ds0, _ := srv.Registry().Get("tri")
	a, b, c := freshTriangle(t, ds0.DB(), 12)
	var dr serve.DeltaResponse
	code := postJSON(t, ts.URL+"/datasets/tri/delta", serve.DeltaRequest{
		Appends: map[string][][]int{
			"S1": {{a, b}}, "S2": {{b, c}}, "S3": {{c, a}},
		},
	}, &dr)
	if code != http.StatusOK {
		t.Fatalf("delta status %d", code)
	}
	if dr.Version != 1 || dr.Appended != 3 || dr.Deleted != 0 {
		t.Fatalf("unexpected delta response %+v", dr)
	}

	ds, _ := srv.Registry().Get("tri")
	if ds.Version() != 1 {
		t.Fatalf("dataset version %d, want 1", ds.Version())
	}
	second := ask()
	if second.PlanCached {
		t.Fatal("post-delta query hit the stale-version plan")
	}
	if !second.StatsCached {
		t.Fatal("post-delta statistics were not pre-installed")
	}
	if second.Fingerprint == first.Fingerprint {
		t.Fatal("fingerprint did not change with the dataset version")
	}
	truth, err := core.GroundTruth(q, ds.DB())
	if err != nil {
		t.Fatal(err)
	}
	if !answersMatch(second.Answers, truth) {
		t.Fatalf("post-delta answers diverge from ground truth: %d vs %d tuples",
			len(second.Answers), len(truth))
	}
	third := ask()
	if !third.PlanCached {
		t.Fatal("repeat query at the same version missed the plan cache")
	}

	// Delete one atom of the appended triangle: the answer must drop.
	code = postJSON(t, ts.URL+"/datasets/tri/delta", serve.DeltaRequest{
		Deletes: map[string][][]int{"S1": {{a, b}}},
	}, &dr)
	if code != http.StatusOK {
		t.Fatalf("delete delta status %d", code)
	}
	if dr.Version != 2 || dr.Deleted != 1 {
		t.Fatalf("unexpected delete response %+v", dr)
	}
	truth, err = core.GroundTruth(q, ds.DB())
	if err != nil {
		t.Fatal(err)
	}
	if !answersMatch(ask().Answers, truth) {
		t.Fatal("post-delete answers diverge from ground truth")
	}

	// Invalid deltas are rejected without changing the version.
	for name, body := range map[string]string{
		"unknown relation": `{"appends":{"X":[[1,2]]}}`,
		"bad delete":       fmt.Sprintf(`{"deletes":{"S1":[[%d,%d]]}}`, a, b), // already deleted above
		"empty":            `{}`,
		"unknown field":    `{"append":{"S1":[[1,2]]}}`,
		"zero value":       `{"appends":{"S1":[[0,2]]}}`,
		"out of domain":    `{"appends":{"S1":[[1,13]]}}`,
		"mixed arity":      `{"appends":{"S1":[[1,2],[1,2,3]]}}`,
	} {
		resp, err := http.Post(ts.URL+"/datasets/tri/delta", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if ds.Version() != 2 {
		t.Fatalf("rejected deltas moved the version to %d", ds.Version())
	}
	if got := srv.Metrics().DeltasTotal.Load(); got != 2 {
		t.Fatalf("DeltasTotal = %d, want 2", got)
	}
}

// TestContinuousQueryLifecycle registers a continuous query, checks
// its warm answers against ground truth across append and delete
// batches, and deregisters it.
func TestContinuousQueryLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{DefaultP: 4, MaxAnswers: 100000}, 15)
	q, err := query.ParseFamily("C3")
	if err != nil {
		t.Fatal(err)
	}

	var info serve.ContinuousInfo
	code := postJSON(t, ts.URL+"/continuous", serve.ContinuousRequest{
		Name: "tri-live", Dataset: "tri", Family: "C3",
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("register status %d", code)
	}
	if info.Version != 0 || info.P != 4 {
		t.Fatalf("unexpected registration info %+v", info)
	}
	// Duplicate name conflicts.
	if code := postJSON(t, ts.URL+"/continuous", serve.ContinuousRequest{
		Name: "tri-live", Dataset: "tri", Family: "C3",
	}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate registration status %d, want 409", code)
	}

	ds, _ := srv.Registry().Get("tri")
	checkWarm := func(wantVersion uint64) {
		t.Helper()
		var ans serve.ContinuousAnswers
		if code := getJSON(t, ts.URL+"/continuous/tri-live", &ans); code != http.StatusOK {
			t.Fatalf("warm read status %d", code)
		}
		if ans.Error != "" {
			t.Fatalf("continuous query broken: %s", ans.Error)
		}
		if ans.Version != wantVersion || ans.DatasetVersion != wantVersion {
			t.Fatalf("warm read at version %d/%d, want %d", ans.Version, ans.DatasetVersion, wantVersion)
		}
		truth, err := core.GroundTruth(q, ds.DB())
		if err != nil {
			t.Fatal(err)
		}
		if !answersMatch(ans.Answers, truth) {
			t.Fatalf("warm answers diverge from ground truth at version %d: %d vs %d tuples",
				wantVersion, len(ans.Answers), len(truth))
		}
	}
	checkWarm(0)

	a, b, c := freshTriangle(t, ds.DB(), 15)
	var dr serve.DeltaResponse
	postJSON(t, ts.URL+"/datasets/tri/delta", serve.DeltaRequest{
		Appends: map[string][][]int{"S1": {{a, b}}, "S2": {{b, c}}, "S3": {{c, a}}},
	}, &dr)
	if len(dr.Maintained) != 1 || dr.Maintained[0].Name != "tri-live" {
		t.Fatalf("delta did not maintain the continuous query: %+v", dr.Maintained)
	}
	if dr.Maintained[0].AnswersAdded < 1 {
		t.Fatalf("appending a triangle added %d answers", dr.Maintained[0].AnswersAdded)
	}
	if dr.Maintained[0].RoutedTuples < 1 || dr.Maintained[0].Bits < 1 {
		t.Fatalf("maintenance reported no routed traffic: %+v", dr.Maintained[0])
	}
	checkWarm(1)

	postJSON(t, ts.URL+"/datasets/tri/delta", serve.DeltaRequest{
		Deletes: map[string][][]int{"S2": {{b, c}}},
	}, &dr)
	if dr.Maintained[0].AnswersRemoved < 1 {
		t.Fatalf("deleting a witness removed %d answers", dr.Maintained[0].AnswersRemoved)
	}
	checkWarm(2)

	if got := srv.Metrics().MaintenanceBits.Load(); got <= 0 {
		t.Fatalf("MaintenanceBits = %d after maintenance", got)
	}

	// Listing includes it; deletion removes it.
	var list []serve.ContinuousInfo
	if code := getJSON(t, ts.URL+"/continuous", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("listing: code %d, %d entries", code, len(list))
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/continuous/tri-live", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/continuous/tri-live", nil); code != http.StatusNotFound {
		t.Fatalf("read after delete status %d, want 404", code)
	}
}

// TestContinuousLimitUnderConcurrentRegistrations: MaxContinuous holds
// when registrations race. Eight concurrent POST /continuous at a limit
// of one give exactly one 201 and seven 503s, and the listing holds the
// one query. While the limit was checked before the cold distribution
// and the insert came after it, all eight were registered.
func TestContinuousLimitUnderConcurrentRegistrations(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{DefaultP: 4, MaxContinuous: 1}, 200)
	const n = 8
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		body, _ := json.Marshal(serve.ContinuousRequest{Name: fmt.Sprintf("live-%d", i), Dataset: "tri", Family: "C3"})
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/continuous", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}()
	}
	wg.Wait()
	count := map[int]int{}
	for _, code := range codes {
		count[code]++
	}
	if count[http.StatusCreated] != 1 || count[http.StatusServiceUnavailable] != n-1 {
		t.Errorf("status codes %v, want one 201 and %d 503s", count, n-1)
	}
	var list []serve.ContinuousInfo
	if code := getJSON(t, ts.URL+"/continuous", &list); code != http.StatusOK || len(list) != 1 {
		t.Errorf("listing: code %d, %d entries, want one", code, len(list))
	}
}

// TestPlannerSkewFlipUnderDeltas is the heavy-hitter drift property:
// as deltas pile tuples onto one join value, the engine selected
// through the incrementally maintained statistics must equal the
// engine a from-scratch statistics collection selects — at every
// version, including the one where the selection flips from plain
// hashing to skew-aware routing.
func TestPlannerSkewFlipUnderDeltas(t *testing.T) {
	const (
		n = 1200
		p = 16
	)
	srv := serve.New(serve.Config{DefaultP: p, MaxAnswers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	q, err := query.Parse("R(x,y),S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 0))
	if _, err := srv.Registry().Add("j2", relation.MatchingDatabase(rng, q, n)); err != nil {
		t.Fatal(err)
	}
	ds, _ := srv.Registry().Get("j2")

	// engineAt also executes the from-scratch plan (the server's default
	// seed is 1): the served run routed by a heavy set that arrived
	// through the delta-merged histogram runs, so its answer
	// count and communication record must equal the run routed from a
	// fresh scan's.
	engineAt := func() (served, scratch string) {
		t.Helper()
		out, _ := postQuery(t, ts.URL, serve.QueryRequest{Dataset: "j2", Query: "R(x,y),S(y,z)"})
		pl, err := plan.Build(q, relation.CollectStats(ds.DB()), plan.Options{P: p})
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Execute(ds.DB(), plan.ExecOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		truth, err := core.GroundTruth(q, ds.DB())
		if err != nil {
			t.Fatal(err)
		}
		if out.AnswerCount != len(truth) || len(res.Answers) != len(truth) ||
			out.MaxLoadTuples != res.Stats.MaxLoadTuples() || out.TotalBits != res.Stats.TotalBits() {
			t.Fatalf("served %d answers, max load %d, %d bits; from-scratch plan %d, %d, %d; ground truth %d answers",
				out.AnswerCount, out.MaxLoadTuples, out.TotalBits,
				len(res.Answers), res.Stats.MaxLoadTuples(), res.Stats.TotalBits(), len(truth))
		}
		return out.Engine, pl.Engine.String()
	}
	served, scratch := engineAt()
	if served != scratch {
		t.Fatalf("version 0: served engine %q, from-scratch %q", served, scratch)
	}
	if strings.Contains(served, "skew") {
		t.Fatalf("matching data already selected %q", served)
	}

	flipped := false
	for batch := 0; batch < 24 && !flipped; batch++ {
		// Drift: 100 R-tuples and 100 S-tuples per batch, all on join
		// value y=1.
		app := serve.DeltaRequest{Appends: map[string][][]int{}}
		for i := 0; i < 100; i++ {
			app.Appends["R"] = append(app.Appends["R"], []int{rng.IntN(n) + 1, 1})
			app.Appends["S"] = append(app.Appends["S"], []int{1, rng.IntN(n) + 1})
		}
		var dr serve.DeltaResponse
		if code := postJSON(t, ts.URL+"/datasets/j2/delta", app, &dr); code != http.StatusOK {
			t.Fatalf("delta batch %d status %d", batch, code)
		}
		served, scratch = engineAt()
		if served != scratch {
			t.Fatalf("version %d: served engine %q diverges from from-scratch engine %q",
				dr.Version, served, scratch)
		}
		if strings.Contains(served, "skew") {
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("heavy-hitter drift never flipped the engine to skew-aware routing")
	}
}

// TestServeConcurrentDeltasAndReads is the concurrency regression:
// ~100 goroutines interleave delta ingestion, warm continuous reads,
// cold queries, and metrics scrapes. Every writer asserts
// read-your-writes (a warm read after an acknowledged delta reflects
// at least that version), and the final warm answer must equal ground
// truth on the final state.
func TestServeConcurrentDeltasAndReads(t *testing.T) {
	const (
		n        = 40
		writers  = 20
		deltas   = 3 // per writer
		readers  = 50
		queriers = 20
	)
	srv, ts := newTestServer(t, serve.Config{DefaultP: 4, MaxAnswers: 100000}, n)
	q, err := query.ParseFamily("C3")
	if err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/continuous", serve.ContinuousRequest{
		Name: "live", Dataset: "tri", Family: "C3",
	}, nil); code != http.StatusCreated {
		t.Fatalf("register status %d", code)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers+queriers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w)+1, 77))
			for d := 0; d < deltas; d++ {
				app := serve.DeltaRequest{Appends: map[string][][]int{}}
				for _, rel := range []string{"S1", "S2", "S3"} {
					app.Appends[rel] = append(app.Appends[rel],
						[]int{rng.IntN(n) + 1, rng.IntN(n) + 1})
				}
				body, _ := json.Marshal(app)
				resp, err := http.Post(ts.URL+"/datasets/tri/delta", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var dr serve.DeltaResponse
				err = json.NewDecoder(resp.Body).Decode(&dr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("delta status %d", resp.StatusCode)
					return
				}
				// Read-your-writes: the acknowledged version is already
				// maintained.
				warm, err := http.Get(ts.URL + "/continuous/live")
				if err != nil {
					errs <- err
					return
				}
				var ans serve.ContinuousAnswers
				err = json.NewDecoder(warm.Body).Decode(&ans)
				warm.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if ans.Error != "" {
					errs <- fmt.Errorf("continuous query broken: %s", ans.Error)
					return
				}
				if ans.Version < dr.Version {
					errs <- fmt.Errorf("stale read: warm version %d after acknowledged delta %d",
						ans.Version, dr.Version)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var url string
			if r%5 == 0 {
				url = ts.URL + "/healthz"
			} else {
				url = ts.URL + "/continuous/live"
			}
			for i := 0; i < 4; i++ {
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s status %d", url, resp.StatusCode)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
			}
		}(r)
	}
	for c := 0; c < queriers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(serve.QueryRequest{Dataset: "tri", Family: "C3"})
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("cold query status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ds, _ := srv.Registry().Get("tri")
	wantVersion := uint64(writers * deltas)
	if ds.Version() != wantVersion {
		t.Fatalf("final version %d, want %d", ds.Version(), wantVersion)
	}
	var ans serve.ContinuousAnswers
	if code := getJSON(t, ts.URL+"/continuous/live", &ans); code != http.StatusOK {
		t.Fatalf("final warm read status %d", code)
	}
	if ans.Version != wantVersion || ans.Error != "" {
		t.Fatalf("final warm state version %d err %q, want %d", ans.Version, ans.Error, wantVersion)
	}
	truth, err := core.GroundTruth(q, ds.DB())
	if err != nil {
		t.Fatal(err)
	}
	if !answersMatch(ans.Answers, truth) {
		t.Fatalf("final warm answers diverge from ground truth: %d vs %d tuples",
			len(ans.Answers), len(truth))
	}

	// Metrics moved as the workload demands.
	m := srv.Metrics()
	if got := m.DeltasTotal.Load(); got != int64(wantVersion) {
		t.Fatalf("DeltasTotal = %d, want %d", got, wantVersion)
	}
	if m.ContinuousReads.Load() < int64(writers*deltas) {
		t.Fatalf("ContinuousReads = %d, want ≥ %d", m.ContinuousReads.Load(), writers*deltas)
	}
	if m.MaintenanceBits.Load() <= 0 {
		t.Fatal("MaintenanceBits did not move")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	_, _ = prom.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("mpcserve_deltas_total %d", wantVersion),
		"mpcserve_continuous_queries 1",
		"mpcserve_continuous_staleness 0",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("healthz missing %q", want)
		}
	}
}
