package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/serve"
)

// TestWarmOpMaterializesNoRows: a warm op on a CSV-registered dataset —
// whose relations are sealed runs — reads its input as runs, and its
// reply reads the answer run. Three checks, workers' share of the
// process included, over n = 10⁵ rows per relation:
//
//   - A resident op — C3 on the hypercube engine and both skewed joins
//     on the skew engine, every scatter attached — allocates less than
//     16 B per input row plus its answers' allowance.
//   - Any warm op allocates less than 16 B per input row more than the
//     same op on a twin dataset registered through Tuples, where reading
//     rows is free.
//   - A warm skew join whose every S row joins (83 259 answers, of which
//     the reply returns 100) allocates less than 96 B per answer. The
//     reply decodes only the rows it returns: 71 B per answer, under
//     -race too. Materializing the answer as []relation.Tuple before
//     truncating it, as the reply once did, adds 48 B per arity-3 answer.
//
// A per-op Rows() of a run-backed input costs ≥ 40 B per row and fails
// the first two. A skew op that partitions its input afresh — every
// skew op, before its routing had a key — costs ≈ 53 B per row and
// fails the first.
func TestWarmOpMaterializesNoRows(t *testing.T) {
	const n = 100000
	rng := rand.New(rand.NewPCG(29, 1))
	matching := func(name string, attrs ...string) *relation.Relation {
		return relation.Matching(rng, name, attrs, n)
	}
	// S's join column is Zipf(2) over [1, n]: its top value alone breaks
	// the ε-budget of hash routing, so the planner routes by heavy
	// hitters. R holds each y of (n/2, 3n/2] once, where the Zipf tail is
	// all but empty — the input rows, not the answer, are what the bound
	// measures.
	s := relation.SkewedZipf(rng, "S", []string{"y", "z"}, n, 2)
	r := relation.New("R", "x", "y")
	for i, y := range rng.Perm(n) {
		r.MustAdd(relation.Tuple{1 + i, n/2 + 1 + y})
	}
	// skew_warm's shape: R's join column is a permutation of [1, n] and
	// S's is Zipf over [1, n], so every S row joins exactly one R row and
	// the answer has about n tuples (S's distinct rows). Zipf(2), not
	// skew_warm's 1.3, makes the skew engine the planner's choice at p = 8.
	zrng := rand.New(rand.NewPCG(30, 1))
	rAll := relation.New("R", "x", "y")
	for i, y := range zrng.Perm(n) {
		rAll.MustAdd(relation.Tuple{1 + i, 1 + y})
	}
	sAll := relation.SkewedZipf(zrng, "S", []string{"y", "z"}, n, 2)
	const join = "q(x,y,z) = R(x,y), S(y,z)"
	cases := []struct {
		name, engine string
		rels         []*relation.Relation
		req          serve.QueryRequest
		// resident is the scatters a warm op attaches to.
		resident int
		// perAnswer, when set, bounds the op's allocation per answer.
		perAnswer int64
	}{
		{"c3", "one-round hypercube", []*relation.Relation{matching("S1", "x1", "x2"), matching("S2", "x2", "x3"), matching("S3", "x3", "x1")},
			serve.QueryRequest{Family: "C3"}, 3, 0},
		{"skew", "skew-aware routing", []*relation.Relation{r, s},
			serve.QueryRequest{Query: join}, 2, 0},
		{"skew-answers", "skew-aware routing", []*relation.Relation{rAll, sAll},
			serve.QueryRequest{Query: join, MaxAnswers: 100}, 2, 96},
	}
	srv := serve.New(serve.Config{WorkerAddrs: startWorkerPool(t, 8)})
	h := srv.Handler()
	post := func(path string, v any, out any) {
		t.Helper()
		body, _ := json.Marshal(v)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 300 {
			t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body)
		}
		if out != nil {
			if err := json.NewDecoder(rec.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	}
	// warmOp runs req against dataset three times — cold, retaining,
	// attached — and returns the reply and the bytes allocated by a fourth.
	warmOp := func(req serve.QueryRequest, dataset string) (serve.QueryResponse, int64) {
		t.Helper()
		req.Dataset = dataset
		if req.MaxAnswers == 0 {
			req.MaxAnswers = -1
		}
		var out serve.QueryResponse
		for i := 0; i < 3; i++ {
			post("/query", req, &out)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		post("/query", req, &out)
		runtime.ReadMemStats(&after)
		return out, int64(after.TotalAlloc - before.TotalAlloc)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ds := serve.DatasetRequest{Name: c.name, CSV: map[string]string{}}
			rows := 0
			for _, rel := range c.rels {
				var sb strings.Builder
				if err := relation.WriteCSV(&sb, rel); err != nil {
					t.Fatal(err)
				}
				ds.CSV[rel.Name] = sb.String()
				rows += rel.Size()
			}
			post("/datasets", ds, nil)
			twin, err := serve.DatabaseFromCSV(ds.CSV)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Registry().Add(c.name+"-tuples", twin); err != nil {
				t.Fatal(err)
			}

			out, op := warmOp(c.req, c.name)
			twinOut, twinOp := warmOp(c.req, c.name+"-tuples")
			if out.Engine != c.engine || twinOut.Engine != c.engine || out.AnswerCount != twinOut.AnswerCount {
				t.Fatalf("engines %s / %s, %d / %d answers; want %s on both, the same answers", out.Engine, twinOut.Engine, out.AnswerCount, twinOut.AnswerCount, c.engine)
			}
			t.Logf("%d input rows, %d answers, %d resident scatters: %d B allocated, %d B on the Tuples twin (%.1f / %.1f B per row)",
				rows, out.AnswerCount, out.ScatterResident, op, twinOp, float64(op)/float64(rows), float64(twinOp)/float64(rows))
			if op-twinOp >= 16*int64(rows) {
				t.Errorf("a warm op read its run-backed input for %d B more than the same op on Tuples, ≥ 16 B × %d input rows", op-twinOp, rows)
			}
			if out.ScatterResident != c.resident {
				t.Fatalf("%d resident scatters, want %d", out.ScatterResident, c.resident)
			}
			if bound := 16*int64(rows) + c.perAnswer*int64(out.AnswerCount); op >= bound {
				t.Errorf("a resident op allocated %d B, ≥ 16 B × %d input rows + %d B × %d answers", op, rows, c.perAnswer, out.AnswerCount)
			}
			if c.perAnswer > 0 {
				t.Logf("%.1f B per answer", float64(op)/float64(out.AnswerCount))
				if out.AnswerCount < n/2 || len(out.Answers) != 100 || !out.Truncated {
					t.Fatalf("%d answers, %d returned; want ≥ %d, the first 100 returned", out.AnswerCount, len(out.Answers), n/2)
				}
				if op >= c.perAnswer*int64(out.AnswerCount) {
					t.Errorf("a warm op returning 100 of %d answers allocated %d B, ≥ %d B per answer", out.AnswerCount, op, c.perAnswer)
				}
			}
		})
	}
}

// ingestBody is the POST /datasets body bench/'s ingest_cold sends: C3
// on three matchings of n rows each, as relation.WriteCSV writes them,
// marshalled by encoding/json. It returns the body and its row count.
func ingestBody(tb testing.TB, name string, n int) ([]byte, int) {
	tb.Helper()
	rng := rand.New(rand.NewPCG(1, 44))
	ds := serve.DatasetRequest{Name: name, CSV: map[string]string{}}
	for _, a := range [][3]string{{"S1", "x1", "x2"}, {"S2", "x2", "x3"}, {"S3", "x3", "x1"}} {
		var sb strings.Builder
		if err := relation.WriteCSV(&sb, relation.Matching(rng, a[0], a[1:], n)); err != nil {
			tb.Fatal(err)
		}
		ds.CSV[a[0]] = sb.String()
	}
	body, err := json.Marshal(ds)
	if err != nil {
		tb.Fatal(err)
	}
	return body, 3 * n
}

// upload registers body on h and fails unless it is created.
func upload(tb testing.TB, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/datasets", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		tb.Fatalf("POST /datasets: status %d: %s", rec.Code, rec.Body)
	}
}

// TestUploadAllocatesItsBodyOnce: registering ingest_cold's dataset
// through the handler — a 1.1 MB body of 90 000 rows — allocates less
// than the body's size plus 32 B per row. The body is read once into a
// buffer sized by its Content-Length, each relation's text is unescaped
// into one reused buffer and scanned from there into its run (8 B per
// row on the packed path): about 13 B per row beyond the body in all, 21
// under -race, whose instrumented slices.Grow allocates twice.
// Decoding the body with encoding/json, then copying each text into a
// reader and reading that into a flat []int before packing it, costs
// about 134 B per row beyond it and fails.
func TestUploadAllocatesItsBodyOnce(t *testing.T) {
	const n = 30000
	h := serve.New(serve.Config{}).Handler()
	best := int64(-1)
	for i := range 3 {
		body, rows := ingestBody(t, fmt.Sprintf("ingest-%d", i), n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		upload(t, h, body)
		runtime.ReadMemStats(&after)
		op := int64(after.TotalAlloc - before.TotalAlloc)
		if best < 0 || op < best {
			best = op
		}
		if i == 2 {
			beyond := float64(best-int64(len(body))) / float64(rows)
			t.Logf("%d B body, %d rows: %d B allocated, %.1f B per row beyond the body", len(body), rows, best, beyond)
			if bound := int64(len(body)) + 32*int64(rows); best >= bound {
				t.Errorf("an upload allocated %d B, ≥ the body's %d B + 32 B × %d rows", best, len(body), rows)
			}
		}
	}
}

// BenchmarkDatasetUpload registers ingest_cold's dataset through the
// handler, on a fresh server each time.
func BenchmarkDatasetUpload(b *testing.B) {
	body, _ := ingestBody(b, "ingest", 30000)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		h := serve.New(serve.Config{}).Handler()
		b.StartTimer()
		upload(b, h, body)
	}
}
