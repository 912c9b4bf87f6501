package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"time"

	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Per-phase time limits of the run protocol. An op that exceeds
// opTimeout counts as failed; a phase that exceeds its limit aborts
// the run, and every exit path tears the service down.
const (
	opTimeout     = 30 * time.Second
	setupTimeout  = 120 * time.Second
	windowOverrun = 60 * time.Second
)

// client is the one closed-loop client: a single keep-alive
// connection, the next request sent only after the previous reply.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   opTimeout,
		Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and returns the status, the whole body and the
// client-observed time from send to last body byte.
func (c *client) do(ctx context.Context, method, path string, body any) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, nil, 0, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, time.Since(start), err
}

// model is the paper's cost of one reply: rounds, total bits and the
// maximum per-server load. It is deterministic for fixed inputs, so
// every reply of a workload must repeat the first one's exactly.
type model struct {
	rounds  int
	bits    int64
	maxLoad int64
}

func modelOf(r *serve.QueryResponse) model {
	return model{rounds: r.Rounds, bits: r.TotalBits, maxLoad: r.MaxLoadTuples}
}

// plus folds the second query of an ingest cycle into the first: the
// cycle's rounds and bits add up, its load is the larger one.
func (m model) plus(o model) model {
	return model{rounds: m.rounds + o.rounds, bits: m.bits + o.bits, maxLoad: max(m.maxLoad, o.maxLoad)}
}

// allAnswers asks for the complete answer instead of the default
// 100-tuple prefix.
const allAnswers = 1 << 30

// query posts one query and checks the reply against the reference:
// status 200, the answer count, and the sorted answers (all of them
// when full, else the default-capped prefix).
func (c *client) query(ctx context.Context, req serve.QueryRequest, want []relation.Tuple, full bool) (*serve.QueryResponse, int, time.Duration, error) {
	if full {
		req.MaxAnswers = allAnswers
	}
	status, raw, d, err := c.do(ctx, http.MethodPost, "/query", req)
	if err != nil {
		return nil, len(raw), d, err
	}
	if status != http.StatusOK {
		return nil, len(raw), d, fmt.Errorf("POST /query: status %d: %.200s", status, raw)
	}
	var resp serve.QueryResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, len(raw), d, fmt.Errorf("POST /query: bad reply: %w", err)
	}
	if resp.AnswerCount != len(want) {
		return nil, len(raw), d, fmt.Errorf("POST /query: answerCount %d, reference has %d", resp.AnswerCount, len(want))
	}
	prefix := want
	if !full && len(prefix) > 100 {
		prefix = prefix[:100]
	}
	if len(resp.Answers) != len(prefix) {
		return nil, len(raw), d, fmt.Errorf("POST /query: %d answers returned, want %d", len(resp.Answers), len(prefix))
	}
	for i, t := range prefix {
		if !t.Equal(relation.Tuple(resp.Answers[i])) {
			return nil, len(raw), d, fmt.Errorf("POST /query: answer %d is %v, reference says %v", i, resp.Answers[i], t)
		}
	}
	return &resp, len(raw), d, nil
}

// opResult is one op of the timed window as the client saw it.
type opResult struct {
	latency time.Duration
	// end is when the op ended, counted from the start of the window.
	end time.Duration
	// ref is the reference round timed right after the op.
	ref time.Duration
	// legs splits an ingest cycle into upload, cold query, delta and
	// re-query; a warm op has only legs[1].
	legs      [4]time.Duration
	model     model
	respBytes int
	lastQuery string
	// serveCPU and workerCPU are the utime+stime, in ms, that mpcserve
	// and the 16 workers spent while this op was in flight.
	serveCPU, workerCPU float64
}

// op runs one op: a warm query against the registered dataset, or a
// whole ingest cycle under a fresh dataset name. full asks for (and
// checks) complete answers.
func (c *client) op(ctx context.Context, wl workload, in *inputs, seq int, full bool) (opResult, error) {
	var r opResult
	cy := in.cycles[seq%len(in.cycles)]
	req := in.req
	if !wl.ingest {
		req.Dataset = "data"
		resp, n, d, err := c.query(ctx, req, cy.want, full)
		r.latency, r.legs[1], r.respBytes = d, d, n
		if err != nil {
			return r, err
		}
		r.model, r.lastQuery = modelOf(resp), resp.QueryID
		return r, nil
	}
	req.Dataset = fmt.Sprintf("ingest-%d", seq)
	var err error
	if r.legs[0], err = c.upload(ctx, req.Dataset, cy); err != nil {
		return r, err
	}
	cold, n1, d, err := c.query(ctx, req, cy.want, full)
	r.legs[1] = d
	if err != nil {
		return r, err
	}
	status, raw, d, err := c.do(ctx, http.MethodPost, "/datasets/"+req.Dataset+"/delta", cy.delta)
	r.legs[2] = d
	if err != nil {
		return r, err
	}
	if status != http.StatusOK {
		return r, fmt.Errorf("POST delta: status %d: %.200s", status, raw)
	}
	again, n2, d, err := c.query(ctx, req, cy.wantAfter, full)
	r.legs[3] = d
	if err != nil {
		return r, err
	}
	if cold.PlanCached || again.PlanCached {
		return r, fmt.Errorf("ingest cycle %d: a plan was served from the cache (cold %v, after delta %v)", seq, cold.PlanCached, again.PlanCached)
	}
	r.latency = r.legs[0] + r.legs[1] + r.legs[2] + r.legs[3]
	r.model, r.respBytes, r.lastQuery = modelOf(cold).plus(modelOf(again)), n1+n2, again.QueryID
	return r, nil
}

// upload registers one cycle's CSV under name.
func (c *client) upload(ctx context.Context, name string, cy *cycle) (time.Duration, error) {
	status, raw, d, err := c.do(ctx, http.MethodPost, "/datasets", serve.DatasetRequest{Name: name, CSV: cy.csv})
	if err != nil {
		return d, err
	}
	if status != http.StatusCreated {
		return d, fmt.Errorf("POST /datasets: status %d: %.200s", status, raw)
	}
	return d, nil
}

// service is one started query service with what set-up learned.
type service struct {
	client *client
	pid    int
	// stop ends the service and waits for it; calling it again is a
	// no-op.
	stop   func()
	setup  time.Duration
	upload time.Duration
	cold   time.Duration
	// expected holds, per cycle input, the model cost of its first
	// reply; every later reply on the same input must repeat it
	// exactly. Entry 0 is the verified first op's and is what the
	// model metrics report, so they do not depend on the op count.
	expected []*model
	// next numbers ops, and so names ingest datasets, across set-up
	// and the window.
	next int
}

// setUp is phases 2–5 of the run protocol: start the service, register
// the dataset, verify the complete answer of the first (cold) query
// tuple for tuple, and warm up. For ingest_cold the verified first op
// is a whole cycle and there is no shared dataset to register.
func setUp(ctx context.Context, tgt *target, wl workload, in *inputs, sc scale) (*service, error) {
	ctx, cancel := context.WithTimeout(ctx, setupTimeout)
	defer cancel()
	start := time.Now()
	base, pid, stop, err := tgt.startServe(ctx)
	if err != nil {
		return nil, err
	}
	s := &service{client: newClient(base), pid: pid, expected: make([]*model, len(in.cycles))}
	var once sync.Once
	s.stop = func() { once.Do(func() { s.client.close(); stop() }) }
	fail := func(err error) (*service, error) {
		s.stop()
		return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	if !wl.ingest {
		if s.upload, err = s.client.upload(ctx, "data", in.cycles[0]); err != nil {
			return fail(err)
		}
	}
	first, err := s.client.op(ctx, wl, in, s.next, true)
	if err != nil {
		return fail(fmt.Errorf("verification: %w", err))
	}
	if err := s.admit(first); err != nil {
		return fail(err)
	}
	s.cold = first.legs[1]
	if wl.ingest {
		s.upload = first.legs[0]
	}
	for i := 0; i < sc.WarmUps; i++ {
		r, err := s.client.op(ctx, wl, in, s.next, false)
		if err == nil {
			err = s.admit(r)
		}
		if err != nil {
			return fail(fmt.Errorf("warm-up %d: %w", i, err))
		}
	}
	s.setup = time.Since(start)
	return s, nil
}

// admit numbers a completed op and holds its model cost to the first
// reply on the same cycle input.
func (s *service) admit(r opResult) error {
	slot := &s.expected[s.next%len(s.expected)]
	s.next++
	if *slot == nil {
		*slot = &r.model
	} else if **slot != r.model {
		return fmt.Errorf("model cost %+v, the first reply on the same input had %+v", r.model, **slot)
	}
	return nil
}

// window is what the timed window (phase 6) and the reading after it
// (phase 7) produced.
type window struct {
	ops                    []opResult
	failed                 int
	firstErr               error
	wall                   time.Duration
	serveRSS               float64 // MiB
	workerRSS              float64 // MiB
	planHits, planMisses   float64
	statsHits, statsMisses float64
	trace                  *trace.Trace
}

// runWindow drives the closed loop for the given wall time, then reads
// process accounting, the /metrics counters and one execution trace.
func runWindow(ctx context.Context, tgt *target, s *service, wl workload, in *inputs, seconds float64) (*window, error) {
	length := time.Duration(seconds * float64(time.Second))
	ctx, cancel := context.WithTimeout(ctx, length+windowOverrun)
	defer cancel()
	w := &window{}
	before, err := scrape(ctx, s.client)
	if err != nil {
		return nil, err
	}
	servePID := []int{s.pid}
	serveCPU, err := cpuMillis(servePID)
	if err != nil {
		return nil, err
	}
	workerCPU, err := cpuMillis(tgt.workerPIDs)
	if err != nil {
		return nil, err
	}
	ref := newRefPair()
	start := time.Now()
	lastQuery := ""
	for time.Since(start) < length {
		r, err := s.client.op(ctx, wl, in, s.next, false)
		if err == nil {
			err = s.admit(r)
		} else {
			s.next++
		}
		// Process accounting is read after every op, not once around the
		// window, so that CPU per op can be summarized as robustly as
		// latency is.
		serveNow, err1 := cpuMillis(servePID)
		workerNow, err2 := cpuMillis(tgt.workerPIDs)
		if err1 != nil || err2 != nil {
			return nil, errors.Join(err1, err2)
		}
		r.serveCPU, r.workerCPU = serveNow-serveCPU, workerNow-workerCPU
		r.end = time.Since(start)
		r.ref = ref.round()
		serveCPU, workerCPU = serveNow, workerNow
		if err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = fmt.Errorf("op %d: %w", len(w.ops)+w.failed, err)
			}
			if ctx.Err() != nil {
				break
			}
			continue
		}
		w.ops = append(w.ops, r)
		lastQuery = r.lastQuery
	}
	w.wall = time.Since(start)
	if w.serveRSS, err = peakRSSMB(servePID); err != nil {
		return nil, err
	}
	if w.workerRSS, err = peakRSSMB(tgt.workerPIDs); err != nil {
		return nil, err
	}
	after, err := scrape(ctx, s.client)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	w.planHits, w.planMisses = delta("mpcserve_plan_cache_hits_total"), delta("mpcserve_plan_cache_misses_total")
	w.statsHits, w.statsMisses = delta("mpcserve_stats_cache_hits_total"), delta("mpcserve_stats_cache_misses_total")
	if lastQuery != "" {
		status, raw, _, err := s.client.do(ctx, http.MethodGet, "/trace/"+lastQuery, nil)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("GET /trace/%s: status %d, err %v", lastQuery, status, err)
		}
		w.trace = &trace.Trace{}
		if err := json.Unmarshal(raw, w.trace); err != nil {
			return nil, fmt.Errorf("GET /trace/%s: %w", lastQuery, err)
		}
	}
	return w, nil
}

var promSample = regexp.MustCompile(`(?m)^(mpcserve_[a-z_]+) ([0-9.e+-]+)$`)

// scrape reads the unlabelled samples of GET /metrics.
func scrape(ctx context.Context, c *client) (map[string]float64, error) {
	status, raw, _, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	out := map[string]float64{}
	for _, m := range promSample.FindAllSubmatch(raw, -1) {
		v, err := strconv.ParseFloat(string(m[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: sample %s: %w", m[0], err)
		}
		out[string(m[1])] = v
	}
	return out, nil
}
