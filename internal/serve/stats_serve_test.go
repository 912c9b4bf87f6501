package serve_test

// Tests of the dataset statistics lifecycle: whichever of a query and
// a delta reaches a dataset first, every version's catalog equals a
// from-scratch CollectStats of that version, earlier versions'
// catalogs are never written, and the stats-cache signals keep their
// meaning (one miss for the collecting query, none when a delta seeded
// the catalog first).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/serve"
)

// triDelta appends one fresh triangle to the "tri" dataset and deletes
// one resident S1 tuple.
func triDelta(t *testing.T, url string, db *relation.Database, n int) {
	t.Helper()
	a, b, c := freshTriangle(t, db, n)
	gone := db.Relations["S1"].Tuples[0]
	if code := postJSON(t, url+"/datasets/tri/delta", serve.DeltaRequest{
		Appends: map[string][][]int{"S1": {{a, b}}, "S2": {{b, c}}, "S3": {{c, a}}},
		Deletes: map[string][][]int{"S1": {[]int(gone)}},
	}, nil); code != http.StatusOK {
		t.Fatalf("delta status %d", code)
	}
}

// statsCollected reads the dataset listing's statsCollected flag.
func statsCollected(t *testing.T, url string) bool {
	t.Helper()
	var list []serve.DatasetInfo
	if code := getJSON(t, url+"/datasets", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("GET /datasets: status %d, %d datasets", code, len(list))
	}
	return list[0].StatsCollected
}

// checkCatalog requires the snapshot's memoized catalog to equal a
// from-scratch collection of its database.
func checkCatalog(t *testing.T, what string, sn *serve.Snapshot) {
	t.Helper()
	if got, want := sn.DB.Stats(), relation.CollectStats(sn.DB); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: version %d catalog diverges from CollectStats:\n got %+v\nwant %+v", what, sn.Version, got, want)
	}
}

func TestDatasetStatsQueryThenDelta(t *testing.T) {
	const n = 60
	srv, ts := newTestServer(t, serve.Config{DefaultP: 4, MaxAnswers: 100000}, n)
	ds, _ := srv.Registry().Get("tri")
	v0 := ds.Snapshot()
	if statsCollected(t, ts.URL) {
		t.Fatal("statsCollected before any query or delta")
	}
	req := serve.QueryRequest{Dataset: "tri", Family: "C3"}
	if first, _ := postQuery(t, ts.URL, req); first.StatsCached {
		t.Fatal("the collecting query reported memoized statistics")
	}
	if !statsCollected(t, ts.URL) {
		t.Fatal("statsCollected false after the collecting query")
	}
	v0Catalog := v0.DB.Stats()
	checkCatalog(t, "after the first query", v0)

	// The delta seeds the incremental catalog from the histograms the
	// query's collection kept; version 1 is born with its catalog.
	for round := 1; round <= 3; round++ {
		triDelta(t, ts.URL, ds.DB(), n)
		checkCatalog(t, "after a delta", ds.Snapshot())
		if again, _ := postQuery(t, ts.URL, req); !again.StatsCached || again.PlanCached {
			t.Fatalf("post-delta query: statsCached=%v planCached=%v, want true, false", again.StatsCached, again.PlanCached)
		}
	}
	if v0.DB.Stats() != v0Catalog {
		t.Fatal("version 0 re-collected its statistics")
	}
	checkCatalog(t, "version 0 after three deltas", v0)
	if m, h := srv.Metrics().StatsCacheMisses.Load(), srv.Metrics().StatsCacheHits.Load(); m != 1 || h != 3 {
		t.Fatalf("stats cache misses/hits = %d/%d, want 1/3", m, h)
	}
}

func TestDatasetStatsDeltaBeforeAnyQuery(t *testing.T) {
	const n = 60
	srv, ts := newTestServer(t, serve.Config{DefaultP: 4, MaxAnswers: 100000}, n)
	ds, _ := srv.Registry().Get("tri")
	v0 := ds.Snapshot()
	triDelta(t, ts.URL, ds.DB(), n)
	if !statsCollected(t, ts.URL) {
		t.Fatal("statsCollected false after a delta installed the catalog")
	}
	checkCatalog(t, "after the first delta", ds.Snapshot())
	if first, _ := postQuery(t, ts.URL, serve.QueryRequest{Dataset: "tri", Family: "C3"}); !first.StatsCached {
		t.Fatal("first query after a delta collected statistics again")
	}
	triDelta(t, ts.URL, ds.DB(), n)
	checkCatalog(t, "after the second delta", ds.Snapshot())
	checkCatalog(t, "version 0", v0)
	if m, h := srv.Metrics().StatsCacheMisses.Load(), srv.Metrics().StatsCacheHits.Load(); m != 0 || h != 1 {
		t.Fatalf("stats cache misses/hits = %d/%d, want 0/1", m, h)
	}
}

// TestDatasetStatsConcurrentQueriesDuringDelta reads version 0's
// catalog and plans on it from many goroutines (each query with its
// own plan-cache key, so each fetches statistics) while deltas seed
// the incremental catalog from version 0 and merge past it — with the
// collecting query already done (the deltas adopt its histograms) and
// with collection and the first delta racing. Run under -race: adopted
// histograms are shared, never written.
func TestDatasetStatsConcurrentQueriesDuringDelta(t *testing.T) {
	for _, collected := range []bool{true, false} {
		t.Run(fmt.Sprintf("collected=%v", collected), func(t *testing.T) {
			const n, queriers = 60, 12
			srv, ts := newTestServer(t, serve.Config{DefaultP: 4, MaxAnswers: 100000, MaxConcurrent: 64}, n)
			ds, _ := srv.Registry().Get("tri")
			v0 := ds.Snapshot()
			if collected {
				postQuery(t, ts.URL, serve.QueryRequest{Dataset: "tri", Family: "C3"})
			}
			want := relation.CollectStats(v0.DB)

			var wg sync.WaitGroup
			for g := 0; g < queriers; g++ {
				wg.Add(2)
				go func() {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						if stats, _ := v0.Stats(); !reflect.DeepEqual(stats, want) {
							t.Errorf("querier %d: version 0 catalog changed under a concurrent delta", g)
							return
						}
					}
				}()
				go func() {
					defer wg.Done()
					body, _ := json.Marshal(serve.QueryRequest{Dataset: "tri", Family: "C3", P: 2 + g})
					resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("querier %d: %v", g, err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("querier %d: status %d", g, resp.StatusCode)
					}
				}()
			}
			for round := 0; round < 4; round++ {
				triDelta(t, ts.URL, ds.DB(), n)
			}
			wg.Wait()
			checkCatalog(t, "after the concurrent deltas", ds.Snapshot())
			checkCatalog(t, "version 0", v0)
		})
	}
}
