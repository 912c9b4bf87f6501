package plan

import (
	"fmt"
	"math"
	"math/big"
	"strings"
)

// Explain renders the plan as the human-readable EXPLAIN report that
// cmd/mpcplan prints: the statistics it saw, the LP solution, the
// derived shares, the predicted load against the paper's bound and the
// ε-budget, and the engine decision with its reason.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "EXPLAIN %s\n", p.Query)

	// Statistics line.
	sb.WriteString("  statistics:")
	for _, a := range p.Query.Atoms {
		fmt.Fprintf(&sb, " %s", p.Stats.Relation(a.Name))
	}
	sb.WriteString("\n")

	// LP solution: τ*, the packing witness, and the share exponents.
	fmt.Fprintf(&sb, "  edge-packing LP: τ* = %s, one-round space exponent ε₀ = 1 − 1/τ* = %s\n",
		p.Tau.RatString(), spaceExponentString(p))
	sb.WriteString("    packing u:")
	for j, a := range p.Query.Atoms {
		fmt.Fprintf(&sb, " %s=%s", a.Name, p.EdgePacking[j].RatString())
	}
	sb.WriteString("\n    share exponents e = v/τ*:")
	for i, v := range p.Query.Vars() {
		fmt.Fprintf(&sb, " %s=%s", v, p.ShareExponents[i].RatString())
	}
	sb.WriteString("\n")

	// Integer shares.
	src := "LP rounding"
	if p.SizeAware {
		src = "size-aware enumeration"
	}
	fmt.Fprintf(&sb, "  shares @ p=%d (%s): %s, grid %d", p.P, src, p.Shares, p.Shares.GridSize())
	if exp := sharedExponentLabel(p); exp != "" {
		fmt.Fprintf(&sb, " (p^{%s} per hashed dimension)", exp)
	}
	sb.WriteString("\n")

	// Costs against the paper bound and the ε-budget.
	fmt.Fprintf(&sb, "  predicted one-round load: %.0f tuples/worker (uniform %.0f, skew %.0f)\n",
		p.OneRoundCost.LoadTuples, p.UniformLoad, p.SkewLoad)
	fmt.Fprintf(&sb, "  paper bound Σ_j |S_j|/p^{Σe_i}: %.0f tuples/worker\n", p.BoundLoad)
	verdict := "within budget"
	if p.OneRoundCost.LoadTuples > p.BudgetLoad {
		verdict = "OVER budget"
	}
	fmt.Fprintf(&sb, "  ε-budget c·N/p^{1−ε} @ ε=%s: %.0f tuples/worker — one round %s\n",
		p.Epsilon.RatString(), p.BudgetLoad, verdict)
	fmt.Fprintf(&sb, "  predicted communication: %d tuple copies (%.2f× input)\n",
		p.OneRoundCost.CommTuples, float64(p.OneRoundCost.CommTuples)/math.Max(1, float64(p.input)))

	// Alternatives considered.
	if p.MultiCost != nil {
		fmt.Fprintf(&sb, "  multiround alternative: %s, predicted load %.0f tuples/worker/round, %d tuple copies\n",
			roundsWord(p.MultiCost.Rounds), p.MultiCost.LoadTuples, p.MultiCost.CommTuples)
	}
	if p.SkewMap != nil {
		if len(p.Heavy) > 0 {
			fmt.Fprintf(&sb, "  heavy hitters on %s (threshold %d):", p.SkewMap.YVar, p.HeavyThreshold)
			for i, vc := range p.Heavy {
				if i == 4 {
					fmt.Fprintf(&sb, " … %d more", len(p.Heavy)-i)
					break
				}
				fmt.Fprintf(&sb, " %d×%d", vc.Value, vc.Count)
			}
			sb.WriteString("\n")
		} else {
			fmt.Fprintf(&sb, "  heavy hitters on %s: none above threshold %d\n", p.SkewMap.YVar, p.HeavyThreshold)
		}
	}

	// Aggregation folds the gathered answer; it changes the output, not
	// the plan.
	if p.Aggregate != nil {
		fmt.Fprintf(&sb, "  aggregate (folded over the gathered answer): %s → (%s)\n",
			p.Aggregate, strings.Join(p.AggVars, ","))
	}

	// The decision.
	fmt.Fprintf(&sb, "  engine: %s (%s, predicted load %.0f tuples/worker)\n",
		p.Engine, roundsWord(p.Cost.Rounds), p.Cost.LoadTuples)
	fmt.Fprintf(&sb, "    reason: %s\n", p.Reason)
	if p.Engine == MultiRound && p.Multi != nil {
		for _, line := range strings.Split(strings.TrimRight(p.Multi.String(), "\n"), "\n") {
			fmt.Fprintf(&sb, "    %s\n", line)
		}
	}
	return sb.String()
}

// String is Explain, so a Plan prints usefully with %v.
func (p *Plan) String() string { return p.Explain() }

// roundsWord pluralizes a round count.
func roundsWord(n int) string {
	if n == 1 {
		return "1 round"
	}
	return fmt.Sprintf("%d rounds", n)
}

// spaceExponentString renders 1 − 1/τ* from the plan's τ*.
func spaceExponentString(p *Plan) string {
	inv := new(big.Rat).Inv(p.Tau)
	return new(big.Rat).Sub(big.NewRat(1, 1), inv).RatString()
}

// sharedExponentLabel returns the common share exponent when every
// hashed dimension (share > 1) has the same LP exponent — "1/3" for
// the triangle's p^{1/3}×p^{1/3}×p^{1/3} grid — and "" otherwise.
// Shares that no longer follow the LP (size-aware enumeration, manual
// -plan overrides) carry no exponent label.
func sharedExponentLabel(p *Plan) string {
	if p.SizeAware || p.manualShares {
		return ""
	}
	label := ""
	for i, v := range p.Query.Vars() {
		d := p.Shares.DimOf(v)
		if d < 0 {
			return ""
		}
		if p.Shares.Dims[d] <= 1 && p.ShareExponents[i].Sign() == 0 {
			continue
		}
		e := p.ShareExponents[i].RatString()
		if label == "" {
			label = e
		} else if label != e {
			return ""
		}
	}
	return label
}
