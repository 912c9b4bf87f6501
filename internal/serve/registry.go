package serve

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/query"
	"repro/internal/relation"
)

// Dataset is one resident named database, versioned under delta
// ingestion. Each version is an immutable Snapshot: queries bind,
// plan, and execute against one snapshot — the property that keeps the
// plan cache sound (a cached plan embeds the statistics of exactly one
// version, and plan.CacheKey carries the version) and concurrent
// executions race-free (Plan.Execute treats the database as
// read-only). A delta batch (POST /datasets/{name}/delta) builds the
// next snapshot without mutating the previous one, so in-flight
// queries finish against the version they started on.
type Dataset struct {
	// Name is the registry key.
	Name string
	// owner is the tenant that registered the dataset over HTTP, nil for
	// one registered without a tenant (single-tenant mode, or at
	// startup). Only the owner may post a delta to it or delete it, and
	// its bytes go back to the owner's quota when it is deleted.
	owner *Tenant
	// epoch counts the datasets of this name removed before this one was
	// registered (see identity).
	epoch uint64

	// mu serializes mutation: delta application and the continuous-
	// query maintenance that must observe versions in order, and the
	// removal, which sets dropped. Readers never take it — they load the
	// current snapshot atomically.
	mu      sync.Mutex
	dropped bool
	snap    atomic.Pointer[Snapshot]

	// statsSeen reports whether the current version's catalog is
	// memoized: the first query or the first delta collects it, and
	// every delta carries it into the next version.
	statsSeen atomic.Bool
}

// Snapshot is one immutable version of a dataset. The zero version is
// the registered database; every applied delta batch produces the
// next.
type Snapshot struct {
	// DB is this version's database. Treat as read-only.
	DB *relation.Database
	// Version counts the delta batches applied before this snapshot
	// (0 for the registered database).
	Version uint64

	ds *Dataset
}

// identity names this registration of the dataset to what outlives it —
// cached plans and the workers' resident scatters, both keyed by the
// identity and a version: the name itself, and for a name registered
// again after a DELETE the name and its epoch, so a new dataset never
// meets the plans or the runs of the one it replaced. Names hold no NUL
// byte (Registry.Add), so no identity is another dataset's name.
func (d *Dataset) identity() string {
	if d.epoch == 0 {
		return d.Name
	}
	return fmt.Sprintf("%s\x00%d", d.Name, d.epoch)
}

// Snapshot returns the dataset's current version.
func (d *Dataset) Snapshot() *Snapshot { return d.snap.Load() }

// DB returns the current version's database. Treat as read-only.
func (d *Dataset) DB() *relation.Database { return d.snap.Load().DB }

// Version returns the current version number — the count of applied
// delta batches.
func (d *Dataset) Version() uint64 { return d.snap.Load().Version }

// Stats returns the snapshot's statistics catalog and whether the
// dataset's statistics were already memoized (false exactly once, for
// the collecting call — the serving layer's stats-cache hit/miss
// signal). Post-delta snapshots are born with the catalog ApplyDelta
// carried forward, so only version 0 can pay a collection scan here —
// and only when no delta collected it first: a dataset is scanned once
// on every path.
func (sn *Snapshot) Stats() (stats *relation.Stats, cached bool) {
	cached = sn.ds.statsSeen.Swap(true)
	return sn.DB.Stats(), cached
}

// Bind resolves a query against the snapshot: every atom must name a
// resident relation of matching arity. It returns a cheap per-request
// database view whose relations carry the atom's variables as their
// schema and share the snapshot's sealed runs (relation.WithAttrs):
// nothing is copied, and nothing may be mutated.
func (sn *Snapshot) Bind(q *query.Query) (*relation.Database, error) {
	view := relation.NewDatabase(sn.DB.N)
	for _, a := range q.Atoms {
		rel, ok := sn.DB.Relation(a.Name)
		if !ok {
			return nil, fmt.Errorf("dataset %s has no relation %s (has: %s)",
				sn.ds.Name, a.Name, strings.Join(sn.DB.Names(), ", "))
		}
		if rel.Arity() != a.Arity() {
			return nil, fmt.Errorf("dataset %s: relation %s has arity %d, atom %s needs %d",
				sn.ds.Name, a.Name, rel.Arity(), a, a.Arity())
		}
		view.AddRelation(rel.WithAttrs(a.Vars))
	}
	return view, nil
}

// applyBatchLocked applies one delta batch to the dataset: it validates
// the delta against the current snapshot, builds the next snapshot with
// its statistics catalog already memoized (no re-scan — ApplyDelta
// merges the batch's values into the column histograms of the
// relations it touches), and returns the new version plus the
// set-level effect per changed relation. The caller holds d.mu: the
// delta handler holds it across application and continuous-query
// maintenance so no second delta can interleave between them.
func (d *Dataset) applyBatchLocked(delta relation.Delta) (uint64, map[string]relation.Effect, error) {
	cur := d.snap.Load()
	// Collected already when a query got here first; otherwise this is
	// the dataset's one statistics scan.
	cur.DB.Stats()
	d.statsSeen.Store(true)
	ndb, effects, err := relation.ApplyDelta(cur.DB, delta)
	if err != nil {
		return 0, nil, err
	}
	next := &Snapshot{DB: ndb, Version: cur.Version + 1, ds: d}
	d.snap.Store(next)
	return next.Version, effects, nil
}

// Registry is the named-dataset catalog of the service. It is safe
// for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	sets  map[string]*Dataset
	drops map[string]uint64 // name → datasets of that name removed
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sets: make(map[string]*Dataset), drops: make(map[string]uint64)}
}

// ErrDuplicateDataset reports an Add under an already-registered
// name. A dataset evolves only through its own delta stream, so a
// registered name is not rebound in place (a silent replace would reset
// the version sequence cached plans and continuous queries are keyed
// by); DELETE /datasets/{name} it first.
var ErrDuplicateDataset = errors.New("serve: dataset already registered")

// Add registers db under name. Re-registering an existing name fails
// with ErrDuplicateDataset; callers pick a new name or drop the old
// dataset first (DELETE /datasets/{name}).
func (r *Registry) Add(name string, db *relation.Database) (*Dataset, error) {
	return r.add(name, db, nil)
}

// add registers db under name, owned by owner.
func (r *Registry) add(name string, db *relation.Database, owner *Tenant) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty dataset name")
	}
	if strings.ContainsRune(name, 0) {
		return nil, fmt.Errorf("serve: dataset name %q holds a NUL byte", name)
	}
	if db == nil || len(db.Relations) == 0 {
		return nil, fmt.Errorf("serve: dataset %s has no relations", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.sets[name]; exists {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateDataset, name)
	}
	d := &Dataset{Name: name, owner: owner, epoch: r.drops[name]}
	d.snap.Store(&Snapshot{DB: db, ds: d})
	r.sets[name] = d
	return d, nil
}

// remove unregisters d and marks it dropped, and reports whether d was
// still the dataset registered under its name. The caller holds d.mu, so
// no delta or continuous registration is midway on d; one that takes the
// lock after remove finds d dropped.
func (r *Registry) remove(d *Dataset) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sets[d.Name] != d {
		return false
	}
	delete(r.sets, d.Name)
	r.drops[d.Name]++
	d.dropped = true
	return true
}

// Get returns the named dataset.
func (r *Registry) Get(name string) (*Dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.sets[name]
	return d, ok
}

// getFor returns the named dataset when ten may change it: it has no
// owner, or ten is its owner. To any other tenant the dataset does not
// exist.
func (r *Registry) getFor(name string, ten *Tenant) (*Dataset, bool) {
	d, ok := r.Get(name)
	if !ok || d.owner != nil && d.owner != ten {
		return nil, false
	}
	return d, true
}

// namesFor returns, sorted, the names of the datasets getFor gives ten.
func (r *Registry) namesFor(ten *Tenant) []string {
	var out []string
	for _, name := range r.Names() {
		if _, ok := r.getFor(name, ten); ok {
			out = append(out, name)
		}
	}
	return out
}

// Names returns the registered dataset names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.sets))
	for name := range r.sets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RunsFromCSV builds a database from in-memory CSV texts, one per
// relation (header = attribute names, rows = positive integers; the
// grammar is relation.ReadCSV's). Each relation holds one sealed run,
// every occurrence kept, read straight from the bytes. The domain size
// is the largest value appearing in any relation. It is what a POST
// /datasets body that takes the general decoder registers.
func RunsFromCSV(csvs map[string]string) (*relation.Database, error) {
	return databaseFromCSV(csvs, relation.ReadCSV)
}

// DatabaseFromCSV is RunsFromCSV with every relation's Tuples in file
// order (relation.ReadCSVTuples) — the adapter bench/ parses its
// uploads with, because it draws each delta by row index. The product
// registers RunsFromCSV's relations.
func DatabaseFromCSV(csvs map[string]string) (*relation.Database, error) {
	return databaseFromCSV(csvs, relation.ReadCSVTuples)
}

func databaseFromCSV(csvs map[string]string, read func([]byte, string) (*relation.Relation, error)) (*relation.Database, error) {
	if len(csvs) == 0 {
		return nil, fmt.Errorf("serve: no relations supplied")
	}
	out := make([]readCSV, 0, len(csvs))
	for name, text := range csvs {
		rel, err := read([]byte(text), name)
		out = append(out, readCSV{name: name, rel: rel, err: err})
	}
	return databaseOf(out)
}

// GeneratorSpec describes a synthetic dataset: the relations of a
// query family (or parsed query text) populated with either matching
// or Zipf-skewed data over [n].
type GeneratorSpec struct {
	// Family is a query family name (C3, L4, …); exactly one of Family
	// and Query must be set.
	Family string `json:"family,omitempty"`
	// Query is conjunctive query text whose atoms name the relations.
	Query string `json:"query,omitempty"`
	// N is the domain size (tuples per relation). Must be ≥ 1.
	N int `json:"n"`
	// Seed drives the generator; 1 if zero.
	Seed uint64 `json:"seed,omitempty"`
	// Kind is "matching" (default) or "zipf".
	Kind string `json:"kind,omitempty"`
	// Skew is the Zipf exponent for Kind "zipf"; 1.1 if zero.
	Skew float64 `json:"skew,omitempty"`
}

// Generate builds the database the spec describes.
func Generate(spec GeneratorSpec) (*relation.Database, error) {
	if spec.N < 1 {
		return nil, fmt.Errorf("serve: generator n = %d, need ≥ 1", spec.N)
	}
	q, err := query.Resolve(spec.Query, spec.Family)
	if err != nil {
		return nil, fmt.Errorf("serve: generator: %w", err)
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewPCG(seed, 0x5e12e))
	switch spec.Kind {
	case "", "matching":
		return relation.MatchingDatabase(rng, q, spec.N), nil
	case "zipf":
		skew := spec.Skew
		if skew == 0 {
			skew = 1.1
		}
		db := relation.NewDatabase(spec.N)
		for _, a := range q.Atoms {
			if a.Arity() != 2 {
				return nil, fmt.Errorf("serve: zipf generator needs binary atoms, %s has arity %d", a, a.Arity())
			}
			db.AddRelation(relation.SkewedZipf(rng, a.Name, a.Vars, spec.N, skew))
		}
		return db, nil
	default:
		return nil, fmt.Errorf("serve: unknown generator kind %q (want matching or zipf)", spec.Kind)
	}
}
