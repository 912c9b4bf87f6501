package serve

// This file is the streaming-ingest surface of the service: POST
// /datasets/{name}/delta appends and deletes tuple occurrences on a
// registered dataset. Application is copy-on-write — the previous
// snapshot stays valid for in-flight queries — and the statistics
// catalog is maintained incrementally from the delta's touched
// occurrences, never re-collected. While the dataset's mutation lock
// is held, every continuous query registered on the dataset is
// maintained through its hypercube.Maintainer, so a client that saw
// the delta acknowledged can never read a stale materialized answer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/relation"
)

// DeltaRequest is the POST /datasets/{name}/delta body: per-relation
// tuple occurrences to append and to delete. Within a batch, deletes
// apply before appends. Every delete must match an occurrence present
// in the dataset's current version; values must lie in the dataset's
// registered domain [1, n].
type DeltaRequest struct {
	// Appends maps relation name → tuples to add.
	Appends map[string][][]int `json:"appends,omitempty"`
	// Deletes maps relation name → tuples to remove.
	Deletes map[string][][]int `json:"deletes,omitempty"`
}

// maxDeltaTuples bounds the tuples one delta batch may carry; a batch
// beyond it should be split by the client (and a hostile body cannot
// make the parser build an unbounded structure past it).
const maxDeltaTuples = 1 << 20

// ParseDeltaRequest parses and shape-checks a delta body into the
// relation layer's batch form. It is the whole untrusted-input surface
// of the delta endpoint — exported so the fuzz net can drive it
// directly — and guarantees on success: the delta is non-empty, every
// relation name is non-empty, every tuple is non-empty with positive
// values, tuples of one relation agree on arity within the batch, and
// the batch carries at most maxDeltaTuples occurrences. Arity against
// the resident relation and the domain upper bound are checked at
// application time, where the dataset is known.
func ParseDeltaRequest(body []byte) (relation.Delta, error) {
	var req DeltaRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return relation.Delta{}, fmt.Errorf("serve: bad delta body: %w", err)
	}
	if dec.More() {
		return relation.Delta{}, fmt.Errorf("serve: trailing data after delta body")
	}
	d := relation.Delta{}
	total := 0
	convert := func(side string, in map[string][][]int) (map[string][]relation.Tuple, error) {
		if len(in) == 0 {
			return nil, nil
		}
		out := make(map[string][]relation.Tuple, len(in))
		for name, rows := range in {
			if name == "" {
				return nil, fmt.Errorf("serve: %s delta with empty relation name", side)
			}
			if len(rows) == 0 {
				continue
			}
			total += len(rows)
			if total > maxDeltaTuples {
				return nil, fmt.Errorf("serve: delta carries more than %d tuples; split the batch", maxDeltaTuples)
			}
			arity := len(rows[0])
			ts := make([]relation.Tuple, 0, len(rows))
			for _, row := range rows {
				if len(row) == 0 {
					return nil, fmt.Errorf("serve: %s delta for %s has an empty tuple", side, name)
				}
				if len(row) != arity {
					return nil, fmt.Errorf("serve: %s delta for %s mixes arities %d and %d", side, name, arity, len(row))
				}
				for _, v := range row {
					if v < 1 {
						return nil, fmt.Errorf("serve: %s delta for %s has value %d, need ≥ 1", side, name, v)
					}
				}
				ts = append(ts, relation.Tuple(row))
			}
			out[name] = ts
		}
		if len(out) == 0 {
			return nil, nil
		}
		return out, nil
	}
	var err error
	if d.Deletes, err = convert("delete", req.Deletes); err != nil {
		return relation.Delta{}, err
	}
	if d.Appends, err = convert("append", req.Appends); err != nil {
		return relation.Delta{}, err
	}
	if d.Empty() {
		return relation.Delta{}, fmt.Errorf("serve: empty delta")
	}
	return d, nil
}

// MaintainedQuery reports one continuous query's maintenance under a
// delta batch, inside the DeltaResponse.
type MaintainedQuery struct {
	// Name is the continuous query's registry key.
	Name string `json:"name"`
	// AnswersAdded and AnswersRemoved are the net change to the
	// materialized answer.
	AnswersAdded   int `json:"answersAdded"`
	AnswersRemoved int `json:"answersRemoved"`
	// Bits is the maintenance communication the batch cost this query.
	Bits int64 `json:"bits"`
	// RoutedTuples counts delta tuple receipts across the query's
	// workers — the replication-factor-per-tuple maintenance bound,
	// measured.
	RoutedTuples int64 `json:"routedTuples"`
	// Error reports a failed batch whose rebuild failed too; the query's
	// answers lag the dataset until a later batch rebuilds it.
	Error string `json:"error,omitempty"`
}

// DeltaResponse is the POST /datasets/{name}/delta reply.
type DeltaResponse struct {
	// Dataset echoes the request.
	Dataset string `json:"dataset"`
	// Version is the dataset version after the batch.
	Version uint64 `json:"version"`
	// Appended and Deleted count the tuple occurrences applied.
	Appended int `json:"appended"`
	Deleted  int `json:"deleted"`
	// Maintained lists the continuous queries maintained under the
	// batch, in registration-name order.
	Maintained []MaintainedQuery `json:"maintained,omitempty"`
	// ElapsedMs is the wall-clock application time, maintenance
	// included, in milliseconds.
	ElapsedMs float64 `json:"elapsedMs"`
}

// deltaBytes estimates a batch's resident-byte effect in the
// DatasetBytes unit (8 bytes per stored integer): bytes the appends
// add and bytes the deletes free.
func deltaBytes(delta relation.Delta) (appendBytes, deleteBytes int64) {
	for _, ts := range delta.Appends {
		for _, t := range ts {
			appendBytes += int64(len(t)) * 8
		}
	}
	for _, ts := range delta.Deletes {
		for _, t := range ts {
			deleteBytes += int64(len(t)) * 8
		}
	}
	return appendBytes, deleteBytes
}

// handleDatasetDelta is POST /datasets/{name}/delta: parse, apply
// copy-on-write, maintain continuous queries, report. In multi-tenant
// mode the batch's net byte growth (appends minus deletes) is booked
// against the authenticated tenant's resident-bytes quota.
func (s *Server) handleDatasetDelta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	ten, handled := s.authorize(w, r)
	if handled {
		return
	}
	name := r.PathValue("name")
	ds, ok := s.registry.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q (registered: %v)", name, s.registry.Names())
		return
	}
	body, err := readBody(w, r, 64<<20)
	if err != nil {
		writeError(w, http.StatusBadRequest, "serve: reading body: %v", err)
		return
	}
	delta, err := ParseDeltaRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	appendBytes, deleteBytes := deltaBytes(delta)
	if ten != nil {
		if qe := ten.AdmitBytes(appendBytes); qe != nil {
			writeQuotaError(w, qe)
			return
		}
	}

	start := time.Now()
	// The dataset lock spans application and maintenance: once the
	// response is written, every continuous query on the dataset has
	// already caught up, so an acknowledged delta is never invisible
	// to a subsequent warm read.
	ds.mu.Lock()
	if ds.dropped {
		ds.mu.Unlock()
		if ten != nil {
			ten.ReleaseBytes(appendBytes)
		}
		writeError(w, http.StatusNotFound, "unknown dataset %q", name)
		return
	}
	version, effects, err := ds.applyBatchLocked(delta)
	if err != nil {
		ds.mu.Unlock()
		if ten != nil {
			ten.ReleaseBytes(appendBytes)
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	maintained := s.maintainContinuous(ds, effects)
	ds.mu.Unlock()
	if ten != nil && deleteBytes > 0 {
		ten.ReleaseBytes(deleteBytes)
	}

	appended, deleted := 0, 0
	for _, ts := range delta.Appends {
		appended += len(ts)
	}
	for _, ts := range delta.Deletes {
		deleted += len(ts)
	}
	s.metrics.DeltasTotal.Add(1)
	s.metrics.DeltaTuples.Add(int64(appended + deleted))
	writeJSON(w, http.StatusOK, DeltaResponse{
		Dataset:    ds.Name,
		Version:    version,
		Appended:   appended,
		Deleted:    deleted,
		Maintained: maintained,
		ElapsedMs:  float64(time.Since(start).Microseconds()) / 1000,
	})
}
