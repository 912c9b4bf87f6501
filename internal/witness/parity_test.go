package witness

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"repro/internal/relation"
)

// witnessSet renders witnesses as a sorted set: servers report them in
// no particular order.
func witnessSet(ws []relation.Tuple) string {
	keys := make([]string, len(ws))
	for i, w := range ws {
		keys[i] = fmt.Sprint([]int(w))
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// TestParityWithSimulator holds RunOneRound to what it found and what
// every server received on the mpc simulator (values recorded at the
// commit before the port to dist.Cluster): three instances, each at
// ε ∈ {0, 1/4, 1/2} on p = 16 servers.
func TestParityWithSimulator(t *testing.T) {
	type record struct {
		trueCount int
		witnesses string // witnessSet
		maxBits   int64
		totalBits int64
		perWorker string // fnv of round 1's PerWorkerBits
	}
	golden := map[string]record{
		"seed5/eps0":    {trueCount: 1, witnesses: "", maxBits: 688, totalBits: 9360, perWorker: "3697659ead14832b"},
		"seed5/eps0.25": {trueCount: 1, witnesses: "", maxBits: 1328, totalBits: 17216, perWorker: "9a10713288b85617"},
		"seed5/eps0.5":  {trueCount: 1, witnesses: "[130 77 56 15]", maxBits: 2032, totalBits: 30720, perWorker: "fce5dcff21380bcd"},
		"seed6/eps0":    {trueCount: 0, witnesses: "", maxBits: 848, totalBits: 9488, perWorker: "2126b15dfbf68dab"},
		"seed6/eps0.25": {trueCount: 0, witnesses: "", maxBits: 1216, totalBits: 17136, perWorker: "9fca3a9ed9b46eef"},
		"seed6/eps0.5":  {trueCount: 0, witnesses: "", maxBits: 2080, totalBits: 30720, perWorker: "bb43c3de7ca4ebf6"},
		"seed9/eps0":    {trueCount: 2, witnesses: "[90 1 32 93]", maxBits: 864, totalBits: 9696, perWorker: "4b1c022de0c47c33"},
		"seed9/eps0.25": {trueCount: 2, witnesses: "", maxBits: 1184, totalBits: 16752, perWorker: "63e7871a285ef7cb"},
		"seed9/eps0.5":  {trueCount: 2, witnesses: "[41 39 3 63] [90 1 32 93]", maxBits: 2224, totalBits: 30720, perWorker: "eee06ae3b127fda3"},
	}
	for _, seed := range []uint64{5, 6, 9} {
		in, err := Generate(rand.New(rand.NewPCG(seed, 0x3c)), 144)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0, 0.25, 0.5} {
			name := fmt.Sprintf("seed%d/eps%v", seed, eps)
			res, err := RunOneRound(in, 16, eps, seed+100)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Stats.NumRounds() != 1 {
				t.Fatalf("%s: %d rounds, want 1", name, res.Stats.NumRounds())
			}
			rs := res.Stats.Rounds[0]
			h := fnv.New64a()
			fmt.Fprint(h, rs.PerWorkerBits)
			got := record{
				trueCount: res.TrueCount,
				witnesses: witnessSet(res.Witnesses),
				maxBits:   rs.MaxReceivedBits,
				totalBits: rs.TotalBits,
				perWorker: fmt.Sprintf("%016x", h.Sum64()),
			}
			if res.Found != (len(res.Witnesses) > 0) {
				t.Errorf("%s: Found = %v with %d witnesses", name, res.Found, len(res.Witnesses))
			}
			if want := golden[name]; got != want {
				t.Errorf("%s:\n got %#v\nwant %#v", name, got, want)
			}
		}
	}
}
