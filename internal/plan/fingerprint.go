package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/query"
)

// CacheKey is the canonical identity of a planning problem: everything
// plan.Build consumes except the statistics themselves. Two calls with
// equal CacheKeys and statistics from the same (immutable) dataset
// produce interchangeable plans, so a serving layer may cache the Plan
// under Fingerprint and reuse it across requests.
//
// The query is identified by its exact text rendering (atom order,
// atom names, variable names) — syntactic identity, not isomorphism:
// two isomorphic spellings plan twice, which only costs a duplicate
// cache entry, never a wrong answer.
type CacheKey struct {
	// Query is the planned query.
	Query *query.Query
	// Dataset names the statistics source (the registry name of the
	// resident dataset; "" for ad-hoc databases).
	Dataset string
	// Version is the dataset's delta version: 0 for an immutable or
	// ad-hoc database, and the monotone per-dataset counter after
	// delta ingestion. Distinct versions have distinct statistics, so
	// they must plan (and cache) separately.
	Version uint64
	// Opts are the planner options the plan was or will be built with.
	Opts Options
}

// String renders the key's canonical form, suitable for exact-match
// map lookups and human inspection.
func (k CacheKey) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "q=%s|ds=%s|p=%d", k.Query, k.Dataset, k.Opts.P)
	if k.Version != 0 {
		// Rendered only when set, so version-0 keys keep their historic
		// canonical form (and fingerprints) byte-for-byte.
		fmt.Fprintf(&sb, "|v=%d", k.Version)
	}
	if k.Opts.Epsilon != nil {
		fmt.Fprintf(&sb, "|eps=%s", k.Opts.Epsilon.RatString())
	}
	if k.Opts.CapFactor > 0 {
		fmt.Fprintf(&sb, "|cap=%g", k.Opts.CapFactor)
	}
	return sb.String()
}

// Fingerprint returns a short stable digest of the canonical form —
// the cache key the serving layer stores compiled plans under.
func (k CacheKey) Fingerprint() string {
	sum := sha256.Sum256([]byte(k.String()))
	return hex.EncodeToString(sum[:8])
}

// Fingerprint digests the plan's own planning problem: the query it
// was built for and the effective options it was built with (p, the
// resolved ε, the budget factor). Plans built from
// equal CacheKeys report equal fingerprints.
func (p *Plan) Fingerprint() string {
	return CacheKey{
		Query: p.Query,
		Opts:  Options{P: p.P, Epsilon: p.Epsilon, CapFactor: p.capFactor},
	}.Fingerprint()
}
