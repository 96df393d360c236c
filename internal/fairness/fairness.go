// Package fairness implements the proportionate-fairness machinery of
// §III-B: protected groups, (α,β) representation constraints, strong and
// weak k-fairness checks, the Two-Sided Infeasible Index, the percentage
// of P-fair positions, and the construction of weakly-fair rankings used
// as the central permutation of the Mallows mechanism.
//
// # Convention
//
// The paper's Definitions 1–3 typeset the α/β inequality inconsistently;
// following Chakraborty et al. (Defs 2.4/2.5), which the paper cites as
// the source, every prefix P under consideration must satisfy, for each
// group Gᵢ:
//
//	⌊αᵢ·|P|⌋ ≤ |P ∩ Gᵢ| ≤ ⌈βᵢ·|P|⌉   with  αᵢ ≤ βᵢ.
package fairness

import "fmt"

// Groups assigns each item of a ground set {0,…,d−1} to one of g
// protected groups {0,…,g−1}.
type Groups struct {
	assign []int
	g      int
}

// NewGroups validates assign (one group id per item) against numGroups.
// Groups may be empty; every id must lie in [0, numGroups).
func NewGroups(assign []int, numGroups int) (*Groups, error) {
	if numGroups < 1 {
		return nil, fmt.Errorf("fairness: numGroups = %d, want ≥ 1", numGroups)
	}
	for item, gid := range assign {
		if gid < 0 || gid >= numGroups {
			return nil, fmt.Errorf("fairness: item %d assigned to group %d, want [0,%d)", item, gid, numGroups)
		}
	}
	return &Groups{assign: append([]int(nil), assign...), g: numGroups}, nil
}

// MustGroups is NewGroups for literals with known-good input.
func MustGroups(assign []int, numGroups int) *Groups {
	gr, err := NewGroups(assign, numGroups)
	if err != nil {
		panic(err)
	}
	return gr
}

// NumGroups returns g.
func (gr *Groups) NumGroups() int { return gr.g }

// NumItems returns the size of the ground set.
func (gr *Groups) NumItems() int { return len(gr.assign) }

// Of returns the group of item.
func (gr *Groups) Of(item int) int { return gr.assign[item] }

// Sizes returns the number of items per group.
func (gr *Groups) Sizes() []int {
	sizes := make([]int, gr.g)
	for _, gid := range gr.assign {
		sizes[gid]++
	}
	return sizes
}

// Members returns the items of each group, in increasing item order.
func (gr *Groups) Members() [][]int {
	members := make([][]int, gr.g)
	for item, gid := range gr.assign {
		members[gid] = append(members[gid], item)
	}
	return members
}

// Shares returns each group's fraction of the ground set.
func (gr *Groups) Shares() []float64 {
	shares := make([]float64, gr.g)
	if len(gr.assign) == 0 {
		return shares
	}
	for _, gid := range gr.assign {
		shares[gid]++
	}
	for i := range shares {
		shares[i] /= float64(len(gr.assign))
	}
	return shares
}
