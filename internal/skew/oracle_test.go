package skew

import (
	"fmt"
	"sort"

	"repro/internal/exchange"
	"repro/internal/relation"
)

// This file is the map-based heavy-hitter detection the routing
// compiler replaced, kept verbatim as the tests' oracle: two
// map[int]int frequency tables from the tuples, a combined map to find
// the heavy set, and the block allocation RunJoin used to do inline.

// Frequencies counts occurrences of each value in the named column.
func Frequencies(rel *relation.Relation, attr string) (map[int]int, error) {
	col := rel.AttrIndex(attr)
	if col < 0 {
		return nil, fmt.Errorf("skew: relation %s has no attribute %s", rel.Name, attr)
	}
	freq := make(map[int]int)
	for _, t := range rel.Tuples {
		freq[t[col]]++
	}
	return freq, nil
}

// HeavyHitters returns the values whose combined frequency across both
// inputs exceeds threshold, sorted descending by frequency.
func HeavyHitters(freqR, freqS map[int]int, threshold int) []int {
	combined := make(map[int]int, len(freqR)+len(freqS))
	for v, c := range freqR {
		combined[v] += c
	}
	for v, c := range freqS {
		combined[v] += c
	}
	var heavy []int
	for v, c := range combined {
		if c > threshold {
			heavy = append(heavy, v)
		}
	}
	sort.Slice(heavy, func(i, j int) bool {
		ci, cj := combined[heavy[i]], combined[heavy[j]]
		if ci != cj {
			return ci > cj
		}
		return heavy[i] < heavy[j]
	})
	return heavy
}

// oracleRouting is the heavy set, server blocks and split sides the
// engine derived from the tuples on every query before the compiler.
// The one deliberate difference is the threshold's floor of 1, which
// the planner always had and the engine lacked (a value occurring once
// overall is never heavy).
func oracleRouting(r, s *relation.Relation, ry, sy, p int, factor float64) (heavy []int, blocks map[int][]int, splitR map[int]bool) {
	freqR, _ := Frequencies(r, r.Attrs[ry])
	freqS, _ := Frequencies(s, s.Attrs[sy])
	if factor <= 0 {
		factor = 1
	}
	threshold := int(factor * float64(len(r.Tuples)+len(s.Tuples)) / float64(p))
	if threshold < 1 {
		threshold = 1
	}
	heavy = HeavyHitters(freqR, freqS, threshold)
	blocks, splitR = map[int][]int{}, map[int]bool{}
	next := 0
	for _, v := range heavy {
		combined := freqR[v] + freqS[v]
		size := combined * p / (len(r.Tuples) + len(s.Tuples))
		if size < 1 {
			size = 1
		}
		if size > p {
			size = p
		}
		block := make([]int, size)
		for i := range block {
			block[i] = (next + i) % p
		}
		next = (next + size) % p
		blocks[v] = block
		splitR[v] = freqR[v] >= freqS[v]
	}
	return heavy, blocks, splitR
}

// oraclePartitioner is the map-probing partitioner the engine routed
// with before the compiler, over the oracle's heavy set.
type oraclePartitioner struct {
	col, p    int
	seed      uint64
	block     map[int][]int
	split     map[int]bool
	splitRank []int32
}

func newOraclePartitioner(rel *relation.Relation, col, p int, seed uint64, blocks map[int][]int, split map[int]bool) *oraclePartitioner {
	o := &oraclePartitioner{col: col, p: p, seed: seed, block: blocks, split: split, splitRank: make([]int32, len(rel.Tuples))}
	counter := map[int]int32{}
	for i, t := range rel.Tuples {
		if v := t[col]; blocks[v] != nil && split[v] {
			o.splitRank[i] = counter[v]
			counter[v]++
		}
	}
	return o
}

func (o *oraclePartitioner) Route(i int, t relation.Tuple, buf []int) []int {
	v := t[o.col]
	block := o.block[v]
	switch {
	case block == nil:
		return append(buf, exchange.HashDest(v, o.seed, o.p))
	case o.split[v]:
		return append(buf, block[int(o.splitRank[i])%len(block)])
	default:
		return append(buf, block...)
	}
}
