package main

import (
	"sync"
	"time"
)

// The reference round is a fixed piece of work the harness times right
// after every op, in its own process and with no product code in it.
// The box this benchmark runs on is a slice of a shared host. Its cores
// are its own (no steal time; a loop of dependent arithmetic takes the
// same time to the percent all day), but the memory system is shared,
// and for seconds to minutes at a time whatever misses the cache runs
// slower: the same binary's latency, and its CPU time with it, drifts
// by up to 1.7 times. No summary of one run's latencies is steady
// against that, so the gated latency is reported as a multiple of the
// reference round timed in the same moments (latency_vs_ref); the raw
// milliseconds are per-layer metrics.
//
// A round is half memory traffic (scatter keys into 16 buckets, build
// an open-addressing table, probe it: what a worker's share of a query
// round does to memory) and half dependent arithmetic, which a busy
// host does not slow. How much a busy host slows a query depends on the
// query — reach_warm about as much as the memory half alone,
// ingest_cold, which parses and counts, hardly at all, the others in
// between — and half and half is the mix under which ten-seed runs of
// all five workloads spread least (README.md, Repeatability).

// refKeys is how many keys each of the two goroutines scatters, stores
// and probes; refSteps is the length of the arithmetic chain. On the
// box this was written on both halves take about 4.5 ms.
const (
	refKeys  = 1 << 17
	refSteps = 2_400_000
)

// refState is one goroutine's memory, allocated once: a round
// allocates nothing.
type refState struct {
	keys    []uint64
	buckets [16][]uint64
	table   []uint64
	sum     uint64
}

func newRefState(seed uint64) *refState {
	s := &refState{keys: make([]uint64, refKeys), table: make([]uint64, 2*refKeys)}
	x := seed
	for i := range s.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.keys[i] = x | 1 // 0 marks an empty table slot
	}
	for b := range s.buckets {
		s.buckets[b] = make([]uint64, 0, refKeys/8) // twice the mean bucket
	}
	return s
}

func (s *refState) round() {
	for b := range s.buckets {
		s.buckets[b] = s.buckets[b][:0]
	}
	for _, k := range s.keys {
		b := (k * 0x9e3779b97f4a7c15) >> 60
		s.buckets[b] = append(s.buckets[b], k)
	}
	clear(s.table)
	mask := uint64(len(s.table) - 1)
	slot := func(k uint64) uint64 { return (k * 0xff51afd7ed558ccd) >> 20 & mask }
	for _, bucket := range s.buckets {
		for _, k := range bucket {
			i := slot(k)
			for s.table[i] != 0 {
				i = (i + 1) & mask
			}
			s.table[i] = k
		}
	}
	sum := uint64(0)
	for _, k := range s.keys {
		i := slot(k)
		for s.table[i] != k {
			i = (i + 1) & mask
		}
		sum += i
	}
	for i := 0; i < refSteps; i++ {
		sum = sum*6364136223846793005 + 1442695040888963407
		sum ^= sum >> 13
	}
	s.sum = sum // kept, so that the work is
}

// refPair is the state of both goroutines.
type refPair [2]*refState

func newRefPair() *refPair { return &refPair{newRefState(1), newRefState(2)} }

// round runs one round on each of two goroutines — a query keeps both
// cores of the box busy too — and returns the wall time of the pair.
func (r *refPair) round() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, s := range r {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.round()
		}()
	}
	wg.Wait()
	return time.Since(start)
}
