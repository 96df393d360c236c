// Package quality implements the ranking quality measures of §III-D:
// Cumulative Gain, Discounted Cumulative Gain, Ideal DCG, and Normalized
// DCG.
//
// Scores are indexed by item: scores[i] is the relevance/quality score of
// item i, and a ranking is a perm.Perm listing items by rank. The paper
// writes the discount as 1/log(1+i) with ranks starting at 1; the log
// base cancels in NDCG (DCG and IDCG scale by the same constant), so this
// package uses log₂, the information-retrieval convention.
package quality

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/perm"
)

// Scores holds one relevance score per item, indexed by item id.
type Scores []float64

// Validate rejects NaN scores, which would poison every aggregate.
func (s Scores) Validate() error {
	for i, v := range s {
		if math.IsNaN(v) {
			return fmt.Errorf("quality: score of item %d is NaN", i)
		}
	}
	return nil
}

// Discount maps a 1-based rank to its gain multiplier.
type Discount func(rank int) float64

// LogDiscount is the standard DCG discount 1/log₂(1+rank).
func LogDiscount(rank int) float64 {
	return 1 / math.Log2(float64(1+rank))
}

// UnitDiscount weighs every rank equally, turning DCG into CG.
func UnitDiscount(rank int) float64 { return 1 }

// CG returns the cumulative gain of the top-k prefix: the plain sum of
// the scores of the first k items. k is clamped to the ranking length.
func CG(p perm.Perm, s Scores, k int) (float64, error) {
	return DCGWith(p, s, k, UnitDiscount)
}

// DCG returns the discounted cumulative gain of the top-k prefix with the
// standard logarithmic discount. k is clamped to the ranking length.
func DCG(p perm.Perm, s Scores, k int) (float64, error) {
	return DCGWith(p, s, k, LogDiscount)
}

// DCGWith is DCG with a caller-supplied discount.
func DCGWith(p perm.Perm, s Scores, k int, disc Discount) (float64, error) {
	if len(p) > len(s) {
		return 0, fmt.Errorf("quality: ranking has %d items but only %d scores", len(p), len(s))
	}
	if k < 0 {
		return 0, fmt.Errorf("quality: negative prefix length %d", k)
	}
	if k > len(p) {
		k = len(p)
	}
	var sum float64
	for r := 0; r < k; r++ {
		sum += s[p[r]] * disc(r+1)
	}
	return sum, nil
}

// IDCG returns the best achievable DCG over any ranking of the items that
// p ranks: the items sorted by non-increasing score. This is the paper's
// DCG(π*).
func IDCG(p perm.Perm, s Scores, k int) (float64, error) {
	return DCGWith(Ideal(p, s), s, k, LogDiscount)
}

// Ideal returns the quality-optimal ranking of the items of p: items in
// non-increasing score order. Ties keep the relative order of p (stable),
// making the result deterministic. Scores must not be NaN (see Validate).
func Ideal(p perm.Perm, s Scores) perm.Perm {
	ideal := p.Clone()
	slices.SortStableFunc(ideal, func(a, b int) int { return cmp.Compare(s[b], s[a]) })
	return ideal
}

// NDCG returns DCG(p)/IDCG over the top-k prefix. When IDCG is zero
// (all-zero scores) the ranking trivially achieves the ideal and NDCG is
// defined as 1.
func NDCG(p perm.Perm, s Scores, k int) (float64, error) {
	dcg, err := DCG(p, s, k)
	if err != nil {
		return 0, err
	}
	idcg, err := IDCG(p, s, k)
	if err != nil {
		return 0, err
	}
	if idcg == 0 {
		return 1, nil
	}
	return dcg / idcg, nil
}
