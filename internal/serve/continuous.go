package serve

// This file is the continuous-query surface of the service: a
// registered continuous query keeps a hypercube.Maintainer alive — the
// grid distribution of its dataset's relations, held on the workers
// where every query runs, plus the materialized answer — and every
// delta batch applied to the dataset maintains it synchronously, under
// the dataset's mutation lock. On a worker pool the maintainer holds
// one borrowed session: the workers keep what they received between
// batches, as the p servers of MPC(ε) keep it between rounds, a batch
// that fails builds the maintainer again as registration built it, and
// DELETE parks the session for the next execution. Reads
// (GET /continuous/{name}) are warm: they return the materialized answer
// without planning, shuffling, or joining anything.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/hypercube"
	"repro/internal/query"
	"repro/internal/relation"
)

// contQuery is one registered continuous query.
type contQuery struct {
	name    string
	dataset string
	// owner is the tenant that registered the query (nil in
	// single-tenant mode); to any other tenant the name is unknown.
	owner   *Tenant
	q       *query.Query
	p       int
	seed    uint64
	created time.Time

	// mu guards the maintainer (single-caller) and the version/error
	// state below.
	mu sync.Mutex
	m  *hypercube.Maintainer
	// version is the dataset version the materialized answer reflects.
	version uint64
	// err records why a failed batch's rebuild failed; the answer lags
	// the dataset until a later batch's rebuild succeeds.
	err error
}

// cqRegistry is the server's continuous-query catalog.
type cqRegistry struct {
	mu     sync.RWMutex
	byName map[string]*contQuery
}

// newCQRegistry returns an empty catalog.
func newCQRegistry() *cqRegistry {
	return &cqRegistry{byName: make(map[string]*contQuery)}
}

// add inserts cq, refusing a duplicate name (409) and, when limit
// queries are registered already, any name (503): the check and the
// insert are one step under the lock, so concurrent registrations cannot
// all pass the check. With cq nil it only checks, which a registration
// does before it spends a session and a cold distribution.
func (r *cqRegistry) add(name string, cq *contQuery, limit int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.byName[name]; exists {
		return errorf(http.StatusConflict, "serve: continuous query %s already registered", name)
	}
	if len(r.byName) >= limit {
		return errorf(http.StatusServiceUnavailable, "continuous-query limit %d reached; delete one first", limit)
	}
	if cq != nil {
		r.byName[name] = cq
	}
	return nil
}

// remove deletes the named query of ten and returns it, or nil.
func (r *cqRegistry) remove(name string, ten *Tenant) *contQuery {
	r.mu.Lock()
	defer r.mu.Unlock()
	cq, ok := r.byName[name]
	if !ok || cq.owner != ten {
		return nil
	}
	delete(r.byName, name)
	return cq
}

// get returns the named query of ten.
func (r *cqRegistry) get(name string, ten *Tenant) (*contQuery, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cq, ok := r.byName[name]
	return cq, ok && cq.owner == ten
}

// list returns the queries keep accepts, in name order (deterministic
// maintenance and listing order). The catalog holds at most
// MaxContinuous queries, so it is scanned.
func (r *cqRegistry) list(keep func(*contQuery) bool) []*contQuery {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*contQuery
	for _, cq := range r.byName {
		if keep(cq) {
			out = append(out, cq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// onDataset returns the queries registered on the dataset.
func (r *cqRegistry) onDataset(dataset string) []*contQuery {
	return r.list(func(cq *contQuery) bool { return cq.dataset == dataset })
}

// ownedBy returns the queries ten registered.
func (r *cqRegistry) ownedBy(ten *Tenant) []*contQuery {
	return r.list(func(cq *contQuery) bool { return cq.owner == ten })
}

// maintainContinuous folds one applied delta into every continuous
// query on the dataset. The caller holds ds.mu, so maintenance
// observes versions in application order and a second delta cannot
// interleave. Effects are filtered to each query's atoms; a query
// whose relations the batch did not touch just advances its version.
func (s *Server) maintainContinuous(ds *Dataset, effects map[string]relation.Effect) []MaintainedQuery {
	var out []MaintainedQuery
	for _, cq := range s.continuous.onDataset(ds.Name) {
		out = append(out, cq.maintain(s, ds.Snapshot(), effects))
	}
	return out
}

// maintain folds one delta's effects into this query's maintainer,
// whose answer then reflects sn. A batch that fails, and every batch
// after a rebuild that failed, builds the maintainer again from sn on a
// fresh borrow instead: that borrow's dial replaces a dead member with a
// spare, and the rebuilt answer is the batch's.
func (cq *contQuery) maintain(s *Server, sn *Snapshot, effects map[string]relation.Effect) MaintainedQuery {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	rep, err := &hypercube.Report{}, cq.err
	if err == nil {
		scoped := make(map[string]relation.Effect, len(effects))
		for name, eff := range effects {
			if cq.m.Fanout(name) > 0 && (eff.Added.Len() > 0 || eff.Removed.Len() > 0) {
				scoped[name] = eff
			}
		}
		if len(scoped) > 0 {
			rep, err = cq.m.ApplyDelta(scoped)
		}
	}
	if err != nil {
		old := cq.m.Answers()
		cq.m.Close() // a session the failure left in no known state is hung up
		var m *hypercube.Maintainer
		if m, err = s.maintainer(context.Background(), cq.q, cq.p, cq.seed, sn); err == nil {
			cq.m = m
			rep = &hypercube.Report{Bits: m.Outcome().Stats.TotalBits(),
				AnswersAdded: relation.Diff(m.Answers(), old).Len(), AnswersRemoved: relation.Diff(old, m.Answers()).Len()}
		}
	}
	if cq.err = err; err != nil { // the version stays; the next batch rebuilds
		s.metrics.QueryErrors.Add(1)
		return MaintainedQuery{Name: cq.name, Error: err.Error()}
	}
	cq.version = sn.Version
	s.metrics.MaintenanceBits.Add(rep.Bits)
	return MaintainedQuery{Name: cq.name, AnswersAdded: rep.AnswersAdded, AnswersRemoved: rep.AnswersRemoved,
		Bits: rep.Bits, RoutedTuples: rep.RoutedTuples}
}

// maintainer cold-distributes q over sn's relations on a borrowed
// execution site, which the maintainer keeps until it is closed. It has
// no recovery policy: healing by replay would journal every batch for
// the maintainer's life. The caller holds the dataset's lock.
func (s *Server) maintainer(ctx context.Context, q *query.Query, p int, seed uint64, sn *Snapshot) (*hypercube.Maintainer, error) {
	view, err := sn.Bind(q)
	if err != nil {
		return nil, errorf(http.StatusBadRequest, "%v", err)
	}
	tr, _, err := s.borrow(ctx)
	if err != nil {
		return nil, err
	}
	// No Context: the distribution runs every later batch under the one
	// it is given, and a request's ends with its reply. No Snapshot:
	// batches mutate the stores, and resident runs are immutable.
	m, err := hypercube.NewMaintainer(q, view, p, hypercube.Options{Seed: seed, Transport: tr})
	if err != nil {
		if tr != nil {
			// Distribute leaves the session open when it fails before its
			// cluster owns it; closing twice is safe.
			tr.Close()
		}
		return nil, errorf(http.StatusUnprocessableEntity, "%v", err)
	}
	return m, nil
}

// staleness returns how many dataset versions the query's answer
// lags, given the dataset's current version.
func (cq *contQuery) staleness(dsVersion uint64) uint64 {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	if dsVersion <= cq.version {
		return 0
	}
	return dsVersion - cq.version
}

// ContinuousRequest is the POST /continuous body.
type ContinuousRequest struct {
	// Name is the registry key for the new continuous query. Required.
	Name string `json:"name"`
	// Dataset names the registered dataset to maintain over. Required.
	Dataset string `json:"dataset"`
	// Query is conjunctive query text; exactly one of Query and Family
	// must be set.
	Query string `json:"query,omitempty"`
	// Family is a query family name (C3, L4, …).
	Family string `json:"family,omitempty"`
	// P is the number of workers holding the distribution; 0 selects the
	// service default. On a worker pool it must be unset or the pool
	// size.
	P int `json:"p,omitempty"`
	// Seed drives the maintainer's hash functions; 0 selects 1.
	Seed uint64 `json:"seed,omitempty"`
}

// ContinuousInfo describes one continuous query (registration reply
// and GET /continuous listing entry).
type ContinuousInfo struct {
	// Name is the registry key.
	Name string `json:"name"`
	// Dataset is the maintained dataset.
	Dataset string `json:"dataset"`
	// Query is the canonical query text.
	Query string `json:"query"`
	// P is the worker count holding the distribution.
	P int `json:"p"`
	// Version is the dataset version the materialized answer reflects.
	Version uint64 `json:"version"`
	// DatasetVersion is the dataset's current version; it exceeds
	// Version only while the query is broken (see Error).
	DatasetVersion uint64 `json:"datasetVersion"`
	// AnswerCount is the materialized answer cardinality.
	AnswerCount int `json:"answerCount"`
	// TotalBits is the maintainer's communication: its cold
	// distribution (or last rebuild) plus every batch since.
	TotalBits int64 `json:"totalBits"`
	// Error reports a failed batch whose rebuild failed too, if any.
	Error string `json:"error,omitempty"`
}

// ContinuousAnswers is the GET /continuous/{name} reply: the warm
// materialized answer, no execution involved.
type ContinuousAnswers struct {
	ContinuousInfo
	// Vars is the output schema (query variable order of Answers).
	Vars []string `json:"vars"`
	// Answers holds at most maxAnswers tuples, sorted.
	Answers [][]int `json:"answers,omitempty"`
	// Truncated reports Answers holds fewer than AnswerCount tuples.
	Truncated bool `json:"truncated,omitempty"`
}

// info renders the query's summary. Callers must not hold cq.mu.
func (cq *contQuery) info(dsVersion uint64) ContinuousInfo {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	return cq.infoLocked(dsVersion)
}

// infoLocked is info for callers that hold cq.mu.
func (cq *contQuery) infoLocked(dsVersion uint64) ContinuousInfo {
	info := ContinuousInfo{
		Name:           cq.name,
		Dataset:        cq.dataset,
		Query:          cq.q.String(),
		P:              cq.p,
		Version:        cq.version,
		DatasetVersion: dsVersion,
		AnswerCount:    cq.m.Answers().Len(),
		TotalBits:      cq.m.Outcome().Stats.TotalBits(),
	}
	if cq.err != nil {
		info.Error = cq.err.Error()
	}
	return info
}

// handleContinuous is GET (list) and POST (register) /continuous. A
// tenant lists the queries it registered.
func (s *Server) handleContinuous(w http.ResponseWriter, r *http.Request) {
	ten, handled := s.authorize(w, r)
	if handled {
		return
	}
	switch r.Method {
	case http.MethodGet:
		out := []ContinuousInfo{}
		for _, cq := range s.continuous.ownedBy(ten) {
			out = append(out, cq.info(s.datasetVersion(cq.dataset)))
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		s.handleContinuousRegister(w, r, ten)
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST required")
	}
}

// handleContinuousRegister is POST /continuous: cold-distribute the
// query's relations on a borrowed execution site and register the
// maintainer, owned by ten, which keeps the site until DELETE. The
// dataset resolves as a delta's does: another tenant's is unknown.
func (s *Server) handleContinuousRegister(w http.ResponseWriter, r *http.Request, ten *Tenant) {
	var req ContinuousRequest
	if err := decodeJSONBody(w, r, &req, 1<<20); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "name is required")
		return
	}
	q, err := query.Resolve(req.Query, req.Family)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p, _, ds, err := s.target(req.P, "", req.Dataset, ten)
	if err != nil {
		writeFailure(w, err, "")
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	if err := s.continuous.add(req.Name, nil, s.cfg.MaxContinuous); err != nil {
		writeFailure(w, err, "")
		return
	}

	// Registration happens under the dataset lock: the cold
	// distribution sees one version, and no delta can slip between
	// that snapshot and the subscription.
	ds.mu.Lock()
	if ds.dropped {
		ds.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown dataset %q", ds.Name)
		return
	}
	sn := ds.Snapshot()
	m, err := s.maintainer(r.Context(), q, p, seed, sn)
	if err != nil {
		ds.mu.Unlock()
		writeFailure(w, err, "")
		return
	}
	cq := &contQuery{
		name:    req.Name,
		dataset: ds.Name,
		owner:   ten,
		q:       q,
		p:       p,
		seed:    seed,
		created: time.Now(),
		m:       m,
		version: sn.Version,
	}
	if err := s.continuous.add(cq.name, cq, s.cfg.MaxContinuous); err != nil {
		ds.mu.Unlock()
		m.Close()
		writeFailure(w, err, "")
		return
	}
	ds.mu.Unlock()
	s.metrics.ContinuousRegistered.Add(1)
	writeJSON(w, http.StatusCreated, cq.info(sn.Version))
}

// handleContinuousOne is GET (warm answers) and DELETE
// /continuous/{name}. To any tenant but its owner the name is unknown.
func (s *Server) handleContinuousOne(w http.ResponseWriter, r *http.Request) {
	ten, handled := s.authorize(w, r)
	if handled {
		return
	}
	name := r.PathValue("name")
	switch r.Method {
	case http.MethodGet:
		cq, ok := s.continuous.get(name, ten)
		if !ok {
			var names []string
			for _, cq := range s.continuous.ownedBy(ten) {
				names = append(names, cq.name)
			}
			writeError(w, http.StatusNotFound, "unknown continuous query %q (registered: %v)", name, names)
			return
		}
		cq.mu.Lock()
		resp := ContinuousAnswers{ContinuousInfo: cq.infoLocked(s.datasetVersion(cq.dataset)), Vars: cq.q.Vars()}
		resp.Answers = s.truncate(cq.m.Answers(), s.cfg.MaxAnswers)
		cq.mu.Unlock()
		resp.Truncated = len(resp.Answers) < resp.AnswerCount
		s.metrics.ContinuousReads.Add(1)
		writeJSON(w, http.StatusOK, resp)
	case http.MethodDelete:
		cq := s.continuous.remove(name, ten)
		if cq == nil {
			writeError(w, http.StatusNotFound, "unknown continuous query %q", name)
			return
		}
		cq.mu.Lock()
		cq.m.Close()
		cq.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or DELETE required")
	}
}

// datasetVersion returns the named dataset's current version (0 if it
// vanished, which DELETE /datasets/{name} refuses while a continuous
// query is registered on it).
func (s *Server) datasetVersion(name string) uint64 {
	ds, ok := s.registry.Get(name)
	if !ok {
		return 0
	}
	return ds.Version()
}

// writeContinuousProm renders the render-time continuous-query gauges:
// the registered count and the summed staleness (dataset versions the
// materialized answers lag — 0 unless a maintainer broke, because
// maintenance is synchronous under the dataset lock).
func (s *Server) writeContinuousProm(w io.Writer) {
	var stale uint64
	all := s.continuous.list(func(*contQuery) bool { return true })
	for _, cq := range all {
		stale += cq.staleness(s.datasetVersion(cq.dataset))
	}
	fmt.Fprintf(w, "# HELP mpcserve_continuous_queries Registered continuous queries.\n# TYPE mpcserve_continuous_queries gauge\nmpcserve_continuous_queries %d\n", len(all))
	fmt.Fprintf(w, "# HELP mpcserve_continuous_staleness Summed dataset versions continuous answers lag behind.\n# TYPE mpcserve_continuous_staleness gauge\nmpcserve_continuous_staleness %d\n", stale)
}

// decodeJSONBody decodes a JSON request body of at most limit bytes
// into v.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		return fmt.Errorf("bad JSON body: %w", err)
	}
	return nil
}
