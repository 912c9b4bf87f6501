package dist

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/exchange"
	"repro/internal/relation"
	"repro/internal/wire"
)

// The resident scatter (ARCHITECTURE.md, *Resident scatter*): a worker
// process keeps the routed runs of a scatter it was asked to retain, and
// a later execution of the same scatter attaches to them. The
// coordinator holds belief, a worker's reply is truth, and a miss is
// repaired by re-sending that worker its slice.

// residentBudget bounds the payload bytes one worker process keeps,
// residencyKeys the scatters a coordinator holds belief about.
const (
	residentBudget = 64 << 20
	residencyKeys  = 256
)

// Residency is a coordinator's belief about which scatters its worker
// pool keeps. Safe for concurrent executions.
type Residency struct {
	nonce [16]byte
	mu    sync.Mutex
	// keys maps a sighted scatter key to the per-destination tuple counts
	// the workers were asked to retain (nil after one sighting); order is
	// first-seen order, the oldest forgotten first.
	keys  map[string][]int64
	order []string
}

// NewResidency returns an empty table under a fresh 128-bit nonce: every
// key contains it, so nobody else can name this coordinator's runs.
func NewResidency() (*Residency, error) {
	r := &Residency{keys: make(map[string][]int64)}
	_, err := rand.Read(r.nonce[:])
	return r, err
}

// Snapshot is one execution's Env.Snapshot: the identity of the dataset
// version its base relations belong to, and what its scatters came to.
type Snapshot struct {
	res *Residency
	id  string
	// Hits counts scatters every worker attached to — no Partition, no
	// Data frame; Misses the (scatter, worker) attaches answered miss and
	// re-sent; Retained the (scatter, worker) slices sent to be kept.
	Hits, Misses, Retained int
}

// Snapshot identifies a dataset version to one execution; the caller
// vouches that the pair names one immutable set of relations for the
// life of r. A nil Residency yields nil: every scatter fresh.
func (r *Residency) Snapshot(dataset string, version uint64) *Snapshot {
	if r == nil {
		return nil
	}
	return &Snapshot{res: r, id: fmt.Sprintf("%x/%d/%q", r.nonce, version, dataset)}
}

// sight records an execution of key and returns the counts the workers
// were asked to retain, else whether to ask them now: admission is by
// second sight, so a version queried once pays and keeps nothing.
func (r *Residency) sight(key string) (tuples []int64, retain bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tuples, retain = r.keys[key]
	if !retain {
		if len(r.order) == residencyKeys {
			delete(r.keys, r.order[0])
			r.order = r.order[1:]
		}
		r.keys[key], r.order = nil, append(r.order, key)
	}
	return tuples, retain
}

// learn records what the workers were asked to retain under a sighted
// key; nil forgets it when a worker's reply contradicts the belief.
func (r *Residency) learn(key string, tuples []int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.keys[key]; ok {
		r.keys[key] = tuples
	}
}

// Attachment asks the pool to bind the runs kept under Key into the
// session store Store; Tuples[w] is what worker w must hold for a hit.
type Attachment struct {
	Key, Store string
	Tuples     []int64
}

// residentScatter is a scatter of the open round believed resident.
type residentScatter struct {
	rel     *relation.Relation
	as, key string
	part    exchange.Partitioner
	tuples  []int64
}

// deliveries partitions the scatter — what a fresh one costs, on the one
// miss path — and returns the wanted workers' runs, flagged to be kept.
func (s *residentScatter) deliveries(p int, want []bool) (ds []exchange.Delivery, err error) {
	all, err := exchange.PartitionRun(s.as, s.rel.Run(), p, s.part)
	for _, d := range all {
		if want[d.To] {
			d.Retain = s.key
			ds = append(ds, d)
		}
	}
	return ds, err
}

// scatterKey derives the identity of scattering rel through part, or ""
// for a fresh scatter: no snapshot, a partitioner that cannot describe
// itself.
func (c *Cluster) scatterKey(rel *relation.Relation, part exchange.Partitioner) string {
	k, keyed := part.(exchange.Keyed)
	if c.snap == nil || !keyed {
		return ""
	}
	routing := k.Key()
	if routing == "" {
		return ""
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s/%q/%d/%s", c.snap.id, rel.Name, c.cfg.Workers, routing)))
	return string(sum[:])
}

// retain flags a freshly partitioned scatter to be kept under key and
// records the per-destination counts later executions are charged from.
func (c *Cluster) retain(key string, ds []exchange.Delivery) {
	tuples := make([]int64, c.cfg.Workers)
	for i := range ds {
		ds[i].Retain = key
		if tuples[ds[i].To] == 0 {
			c.snap.Retained++
		}
		tuples[ds[i].To] += int64(ds[i].Buf.Len())
	}
	c.snap.res.learn(key, tuples)
}

// attach asks the workers, in one exchange ahead of the round's barrier,
// to bind every scatter of the round believed resident, and re-sends
// each worker what it reports missing. The answers decide what is sent
// next, so the attach is a fence: the round script so far leaves with it,
// and the misses' runs ride the next one.
func (c *Cluster) attach(ctx context.Context) error {
	ops := c.attaching
	c.attaching = nil
	if len(ops) == 0 {
		return nil
	}
	atts := make([]Attachment, len(ops))
	for i, s := range ops {
		atts[i] = Attachment{Key: s.key, Store: s.as, Tuples: s.tuples}
	}
	reply, err := c.run(ctx, Op{Kind: OpAttach, Attach: atts})
	if err != nil {
		return err
	}
	if len(reply.Attached) != c.cfg.Workers {
		return fmt.Errorf("dist: attach answered for %d workers of %d", len(reply.Attached), c.cfg.Workers)
	}
	// A worker that failed the exchange was replaced by an empty session
	// and misses everything; from here on the journal covers these
	// scatters, and replay re-sends a later replacement its slice.
	for _, s := range ops {
		c.journal(Op{Kind: OpDeliver, Round: c.round, lazy: s})
	}
	var note strings.Builder
	for i, s := range ops {
		miss := make([]bool, c.cfg.Workers)
		missed := 0
		for w := range miss {
			if gone := reply.Attached[w] == nil; gone || !reply.Attached[w][i].Hit {
				miss[w] = true
				missed++
				if !gone && reply.Attached[w][i].Tuples != 0 {
					c.snap.res.learn(s.key, nil)
				}
			}
		}
		fmt.Fprintf(&note, "%s: %d hit, %d miss; ", s.as, len(miss)-missed, missed)
		if missed == 0 {
			c.snap.Hits++
			continue
		}
		c.snap.Misses += missed
		c.snap.Retained += missed
		ds, err := s.deliveries(c.cfg.Workers, miss)
		if err != nil {
			return fmt.Errorf("dist: scatter: %w", err)
		}
		if err := c.enqueue(ctx, Op{Kind: OpDeliver, Round: c.round, Deliveries: ds}); err != nil {
			return err
		}
	}
	c.trace.Event(c.roundSpan, "scatter-resident", -1, strings.TrimSuffix(note.String(), "; "))
	return nil
}

// ResidentStore is what a worker process keeps beyond its sessions:
// retained scatter slices, one merged run each, bounded in bytes, least
// recently attached evicted first. A published entry is never written
// again: its run is sealed, and a session copies the run pointer into
// its own store — which is what its later deltas append to and
// tombstone. What a sealed run remembers of itself (its trie index,
// relation.Run.Index) is derived from it, bounded by it and counted here:
// the budget is re-measured when an entry is attached.
type ResidentStore struct {
	mu                   sync.Mutex
	budget, bytes, clock int64
	entries              map[residentSlot]*residentEntry
}

// residentSlot names one worker's slice of one scatter; residentEntry is
// one published slice — tuples the count received, which merging may
// have reduced — immutable but for used and the bytes last measured.
type residentSlot struct {
	key     string
	slot, p int
}

type residentEntry struct {
	run                 *relation.Run
	tuples, bytes, used int64
}

// NewResidentStore returns an empty store with the process-wide budget.
func NewResidentStore() *ResidentStore {
	return &ResidentStore{budget: residentBudget, entries: make(map[residentSlot]*residentEntry)}
}

// attach returns the run kept for k when it was published as exactly
// want tuples, and the count held; an entry holding anything else is
// dropped.
func (rs *ResidentStore) attach(k residentSlot, want int64) (run *relation.Run, held int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	e := rs.entries[k]
	if e == nil {
		return nil, 0
	}
	if e.tuples != want {
		rs.bytes -= e.bytes
		delete(rs.entries, k)
		return nil, e.tuples
	}
	rs.keep(k, e)
	return e.run, e.tuples
}

// publish keeps run under k as tuples received, replacing what was there.
func (rs *ResidentStore) publish(k residentSlot, run *relation.Run, tuples int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if old := rs.entries[k]; old != nil {
		rs.bytes -= old.bytes
	}
	e := &residentEntry{run: run, tuples: tuples}
	rs.entries[k] = e
	rs.keep(k, e)
}

// keep marks e, the entry under k, as just used, measures it — an index
// may have been built on its run since it was last sized — and evicts the
// least recently attached entries down to the budget.
func (rs *ResidentStore) keep(k residentSlot, e *residentEntry) {
	rs.clock++
	e.used = rs.clock
	rs.bytes -= e.bytes
	e.bytes = e.run.Bytes()
	rs.bytes += e.bytes
	for rs.bytes > rs.budget {
		oldest := k
		for k, o := range rs.entries {
			if o.used < rs.entries[oldest].used {
				oldest = k
			}
		}
		rs.bytes -= rs.entries[oldest].bytes
		delete(rs.entries, oldest)
	}
}

// residentHome is a worker's resident store (nil: it keeps nothing) and
// the slot it plays in a pool of p.
type residentHome struct {
	store   *ResidentStore
	slot, p int
}

// retainedRuns is what one round delivered to be kept under one key: the
// runs, and the store name they landed under.
type retainedRuns struct {
	rel  string
	runs []*relation.Run
}

// publish hands the round's flagged runs — complete, now that its
// barrier has come — to the process's resident store, merged into the one
// run later sessions attach. A session store holding exactly those runs
// takes the merged run in their place, so a cold scatter is merged once,
// here, and not again at the join's read.
func (w *workerStore) publish() {
	for key, r := range w.retained {
		var tuples int64
		for _, run := range r.runs {
			tuples += int64(run.Len())
		}
		merged := r.runs[0]
		if len(r.runs) > 1 {
			merged = relation.Merge(r.runs)
		}
		if merged == nil {
			continue
		}
		if slices.Equal(w.store[r.rel], r.runs) {
			w.store[r.rel] = []*relation.Run{merged}
		}
		w.home.store.publish(residentSlot{key, w.home.slot, w.home.p}, merged, tuples)
	}
	w.retained = nil
}

// attach binds the run the process keeps under key into the session's
// store. Nothing wanted is a hit with nothing to bind.
func (w *workerStore) attach(key, store string, want int64) (wire.Attach, error) {
	if want == 0 || w.home.store == nil {
		return wire.Attach{Hit: want == 0}, nil
	}
	run, held := w.home.store.attach(residentSlot{key, w.home.slot, w.home.p}, want)
	if run != nil {
		if err := w.add(store, run); err != nil {
			return wire.Attach{}, err
		}
	}
	return wire.Attach{Hit: run != nil, Tuples: uint64(held)}, nil
}
