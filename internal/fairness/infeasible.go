package fairness

import (
	"fmt"

	"repro/internal/perm"
)

// Violations holds, per prefix length, whether any group breaches its
// lower or upper bound there.
type Violations struct {
	Lower []bool // Lower[ell-1]: some group under-represented in prefix ell
	Upper []bool // Upper[ell-1]: some group over-represented in prefix ell
}

// EvaluateViolations scans every prefix of p against the bound table.
// The table must cover at least len(p) prefixes.
func EvaluateViolations(p perm.Perm, gr *Groups, b *Bounds) (*Violations, error) {
	if b.K() < len(p) {
		return nil, fmt.Errorf("fairness: bounds cover %d prefixes, ranking has %d", b.K(), len(p))
	}
	if gr.NumItems() < len(p) {
		return nil, fmt.Errorf("fairness: groups cover %d items, ranking has %d", gr.NumItems(), len(p))
	}
	v := &Violations{
		Lower: make([]bool, len(p)),
		Upper: make([]bool, len(p)),
	}
	running := make([]int, gr.NumGroups())
	for r, item := range p {
		running[gr.Of(item)]++
		ell := r
		for g, cnt := range running {
			if cnt < b.Lower[ell][g] {
				v.Lower[ell] = true
			}
			if cnt > b.Upper[ell][g] {
				v.Upper[ell] = true
			}
		}
	}
	return v, nil
}

// LowerCount returns the number of prefixes with a lower-bound violation
// (the paper's LowerViol).
func (v *Violations) LowerCount() int { return countTrue(v.Lower) }

// UpperCount returns the number of prefixes with an upper-bound violation
// (the paper's UpperViol).
func (v *Violations) UpperCount() int { return countTrue(v.Upper) }

// TwoSided returns LowerViol + UpperViol, the paper's Two-Sided
// Infeasible Index (Definition 3). A prefix violating both sides (one
// group under- while another over-represented) contributes 2.
func (v *Violations) TwoSided() int { return v.LowerCount() + v.UpperCount() }

// TwoSidedAt returns the Two-Sided Infeasible Index restricted to the
// first k prefixes — the shortlist-scoped Definition 3 shared by
// PPfairAt and the serving layer's per-response audit.
func (v *Violations) TwoSidedAt(k int) int {
	ii := 0
	for ell := 1; ell <= k && ell <= len(v.Lower); ell++ {
		if v.Lower[ell-1] {
			ii++
		}
		if v.Upper[ell-1] {
			ii++
		}
	}
	return ii
}

// UnionCount returns the number of prefixes with any violation. Unlike
// TwoSided it never exceeds the ranking length.
func (v *Violations) UnionCount() int {
	n := 0
	for i := range v.Lower {
		if v.Lower[i] || v.Upper[i] {
			n++
		}
	}
	return n
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// TwoSidedInfeasibleIndex evaluates Definition 3 directly with bounds
// derived from c over every prefix of p.
func TwoSidedInfeasibleIndex(p perm.Perm, gr *Groups, c *Constraints) (int, error) {
	v, err := EvaluateViolations(p, gr, c.Table(len(p)))
	if err != nil {
		return 0, err
	}
	return v.TwoSided(), nil
}

// PPfair evaluates Definition 4, the percentage of P-fair positions:
// 100·(1 − TwoSidedInfInd(π)/|π|). Because the two-sided index can reach
// 2|π|, the literal definition can be negative.
func PPfair(p perm.Perm, gr *Groups, c *Constraints) (float64, error) {
	if len(p) == 0 {
		return 100, nil
	}
	ii, err := TwoSidedInfeasibleIndex(p, gr, c)
	if err != nil {
		return 0, err
	}
	return 100 * (1 - float64(ii)/float64(len(p))), nil
}

// PPfairAt evaluates Definition 4 over the first k prefixes only:
// 100·(1 − (LowerViol + UpperViol among prefixes 1…k)/k). This is the
// natural audit for shortlist settings where only the top of the
// ranking is consumed.
func PPfairAt(p perm.Perm, gr *Groups, c *Constraints, k int) (float64, error) {
	if k < 1 || k > len(p) {
		return 0, fmt.Errorf("fairness: k = %d outside [1,%d]", k, len(p))
	}
	v, err := EvaluateViolations(p, gr, c.Table(len(p)))
	if err != nil {
		return 0, err
	}
	return 100 * (1 - float64(v.TwoSidedAt(k))/float64(k)), nil
}

// IsWeaklyKFair reports whether p is (α,β)-weak k-fair (Definition 2):
// the prefix of length exactly k satisfies the bounds.
func IsWeaklyKFair(p perm.Perm, gr *Groups, c *Constraints, k int) (bool, error) {
	if k < 1 || k > len(p) {
		return false, fmt.Errorf("fairness: k = %d outside [1,%d]", k, len(p))
	}
	counts := make([]int, gr.NumGroups())
	for r := 0; r < k; r++ {
		counts[gr.Of(p[r])]++
	}
	for g, cnt := range counts {
		if cnt < c.LowerAt(g, k) || cnt > c.UpperAt(g, k) {
			return false, nil
		}
	}
	return true, nil
}
