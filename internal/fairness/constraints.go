package fairness

import (
	"fmt"
	"math"
)

// Constraints holds per-group proportionate-representation bounds: group
// i must hold at least ⌊Alpha[i]·ℓ⌋ and at most ⌈Beta[i]·ℓ⌉ of every
// constrained prefix of length ℓ.
type Constraints struct {
	Alpha []float64 // lower fractions, one per group
	Beta  []float64 // upper fractions, one per group
}

// NewConstraints validates 0 ≤ α ≤ β ≤ 1 per group.
func NewConstraints(alpha, beta []float64) (*Constraints, error) {
	return newConstraints(append([]float64(nil), alpha...), append([]float64(nil), beta...))
}

// newConstraints is NewConstraints for slices the caller hands over
// rather than lends.
func newConstraints(alpha, beta []float64) (*Constraints, error) {
	if len(alpha) != len(beta) {
		return nil, fmt.Errorf("fairness: %d alphas vs %d betas", len(alpha), len(beta))
	}
	if len(alpha) == 0 {
		return nil, fmt.Errorf("fairness: empty constraints")
	}
	for i := range alpha {
		a, b := alpha[i], beta[i]
		if math.IsNaN(a) || math.IsNaN(b) {
			return nil, fmt.Errorf("fairness: group %d has NaN bound", i)
		}
		if a < 0 || b > 1 || a > b {
			return nil, fmt.Errorf("fairness: group %d bounds (α=%v, β=%v) violate 0 ≤ α ≤ β ≤ 1", i, a, b)
		}
	}
	return &Constraints{Alpha: alpha, Beta: beta}, nil
}

// Proportional builds constraints centred on each group's share of the
// ground set, widened by tol on both sides (clamped into [0,1]).
// tol = 0 yields the strictest proportional representation.
func Proportional(gr *Groups, tol float64) (*Constraints, error) {
	if tol < 0 {
		return nil, fmt.Errorf("fairness: negative tolerance %v", tol)
	}
	shares := gr.Shares()
	alpha := make([]float64, len(shares))
	beta := make([]float64, len(shares))
	for i, s := range shares {
		alpha[i] = math.Max(0, s-tol)
		beta[i] = math.Min(1, s+tol)
	}
	return newConstraints(alpha, beta)
}

// NumGroups returns the number of groups the constraints cover.
func (c *Constraints) NumGroups() int { return len(c.Alpha) }

// LowerAt returns the minimum count of group g in a prefix of length ell:
// ⌊α_g·ell⌋.
func (c *Constraints) LowerAt(g, ell int) int {
	return int(math.Floor(c.Alpha[g] * float64(ell)))
}

// UpperAt returns the maximum count of group g in a prefix of length ell:
// ⌈β_g·ell⌉.
func (c *Constraints) UpperAt(g, ell int) int {
	return int(math.Ceil(c.Beta[g] * float64(ell)))
}

// Bounds is a materialized table of prefix bounds: Lower[ell-1][g] and
// Upper[ell-1][g] bound the count of group g in the prefix of length ell,
// for ell = 1…k. Rankers consume Bounds rather than Constraints so that
// noisy-constraint variants (§V-C) can perturb the table.
type Bounds struct {
	Lower [][]int
	Upper [][]int
}

// Table materializes the bounds for prefixes of length 1…k. Whatever k
// is, it makes two allocations besides the Bounds itself: one array of
// row headers and one of cells, which Lower and Upper split in halves.
// Lower is capped at k rows and every row at its length, so an append
// cannot spill into Upper or into the next row.
func (c *Constraints) Table(k int) *Bounds {
	g := len(c.Alpha)
	rows := make([][]int, 2*k)
	cells := make([]int, 2*k*g)
	for i := range rows {
		rows[i] = cells[i*g : (i+1)*g : (i+1)*g]
	}
	b := &Bounds{Lower: rows[:k:k], Upper: rows[k:]}
	for ell := 1; ell <= k; ell++ {
		for gid := 0; gid < g; gid++ {
			b.Lower[ell-1][gid] = c.LowerAt(gid, ell)
			b.Upper[ell-1][gid] = c.UpperAt(gid, ell)
		}
	}
	return b
}

// K returns the number of prefix lengths the table covers.
func (b *Bounds) K() int { return len(b.Lower) }

// NumGroups returns the number of groups the table covers; zero for an
// empty table.
func (b *Bounds) NumGroups() int {
	if len(b.Lower) == 0 {
		return 0
	}
	return len(b.Lower[0])
}

// Clone deep-copies the table. The rows of Lower, and those of Upper,
// share one backing array each, every row capped at its length.
func (b *Bounds) Clone() *Bounds {
	return &Bounds{Lower: cloneRows(b.Lower), Upper: cloneRows(b.Upper)}
}

// cloneRows deep-copies rows, which may differ in length, into one
// backing array.
func cloneRows(rows [][]int) [][]int {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	flat := make([]int, 0, n)
	out := make([][]int, len(rows))
	for i, r := range rows {
		start := len(flat)
		flat = append(flat, r...)
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// Clamp restores the invariants 0 ≤ Lower ≤ Upper and Lower ≤ ell after a
// perturbation, so that noisy tables remain syntactically usable (they
// may of course still be unsatisfiable together with group sizes).
func (b *Bounds) Clamp() {
	for i := range b.Lower {
		ell := i + 1
		for g := range b.Lower[i] {
			if b.Lower[i][g] < 0 {
				b.Lower[i][g] = 0
			}
			if b.Lower[i][g] > ell {
				b.Lower[i][g] = ell
			}
			if b.Upper[i][g] < b.Lower[i][g] {
				b.Upper[i][g] = b.Lower[i][g]
			}
			if b.Upper[i][g] > ell {
				b.Upper[i][g] = ell
			}
		}
	}
}
