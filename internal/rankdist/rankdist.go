// Package rankdist implements the distance metrics between rankings used
// by the paper (§III-C): the Kendall tau distance, which the KT
// selection criterion uses, and the Spearman footrule, the objective of
// ApproxMultiValuedIPF and footrule aggregation, whose tests check
// against it.
//
// All functions take two rankings over the same ground set {0,…,d−1} in
// the perm.Perm one-line representation (item at each rank) and are
// symmetric in their arguments.
package rankdist

import (
	"fmt"

	"repro/internal/perm"
)

func checkSizes(name string, p, q perm.Perm) error {
	if len(p) != len(q) {
		return fmt.Errorf("rankdist: %s: size mismatch %d vs %d", name, len(p), len(q))
	}
	return nil
}

// KendallTau returns the Kendall tau distance between p and q: the number
// of item pairs ranked in opposite relative order by the two rankings.
// Runs in O(d log d).
func KendallTau(p, q perm.Perm) (int64, error) {
	if err := checkSizes("KendallTau", p, q); err != nil {
		return 0, err
	}
	rel, err := p.RelativeTo(q)
	if err != nil {
		return 0, err
	}
	return rel.InversionCount(), nil
}

// MaxKendallTau returns the largest possible Kendall tau distance between
// two rankings of d items: d(d−1)/2.
func MaxKendallTau(d int) int64 {
	n := int64(d)
	return n * (n - 1) / 2
}

// Footrule returns the Spearman footrule distance
// F(p,q) = Σᵢ |pos_p(i) − pos_q(i)|, the total absolute displacement.
// ApproxMultiValuedIPF optimizes this objective.
func Footrule(p, q perm.Perm) (int64, error) {
	if err := checkSizes("Footrule", p, q); err != nil {
		return 0, err
	}
	pp, qp := p.Positions(), q.Positions()
	var sum int64
	for item := range pp {
		d := int64(pp[item] - qp[item])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum, nil
}
