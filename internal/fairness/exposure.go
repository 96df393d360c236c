package fairness

import (
	"fmt"
	"math"

	"repro/internal/perm"
)

// Exposure metrics complement the prefix-count view of P-fairness with
// the position-discount view of the fairness-in-ranking literature the
// paper surveys (Zehlike, Yang, Stoyanovich — "Fairness in Ranking"):
// a rank carries attention proportional to a discount, and a group's
// exposure is the attention its members collect.

// ExposureDiscount maps a 1-based rank to its attention weight.
type ExposureDiscount func(rank int) float64

// LogExposure is the standard 1/log₂(1+rank) attention model (the same
// discount DCG uses).
func LogExposure(rank int) float64 { return 1 / math.Log2(float64(1+rank)) }

// ExposureBaseline selects the reference shares an exposure metric
// compares against. The distinction only matters for prefix rankings
// (len(p) < NumItems): the two baselines coincide on full rankings.
type ExposureBaseline int

const (
	// BaselinePrefix compares each group's exposure share against its
	// share of the ranked items themselves, so the metric isolates
	// position bias: how attention is distributed among the items that
	// were actually ranked. The serving audit uses it: against
	// full-pool shares a top-k ranking would be scored against a
	// baseline it could not reach even with perfect within-prefix
	// proportionality.
	BaselinePrefix ExposureBaseline = iota
	// BaselinePool compares against each group's share of the whole
	// ground set, conflating selection bias (who made the prefix) with
	// position bias (who sits where). Legitimate when that conflation
	// is the point — e.g. auditing a shortlist against the applicant
	// pool — so it stays available explicitly.
	BaselinePool
)

// GroupExposure returns each group's share of the total attention of
// the ranking under the discount (entries sum to 1 for non-empty
// rankings). A nil discount means LogExposure.
func GroupExposure(p perm.Perm, gr *Groups, disc ExposureDiscount) ([]float64, error) {
	if gr.NumItems() < len(p) {
		return nil, fmt.Errorf("fairness: groups cover %d items, ranking has %d", gr.NumItems(), len(p))
	}
	if disc == nil {
		disc = LogExposure
	}
	exposure := make([]float64, gr.NumGroups())
	var total float64
	for r, item := range p {
		w := disc(r + 1)
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("fairness: discount at rank %d is %v", r+1, w)
		}
		exposure[gr.Of(item)] += w
		total += w
	}
	if total > 0 {
		for g := range exposure {
			exposure[g] /= total
		}
	}
	return exposure, nil
}

// baselineShares returns the reference shares of the chosen baseline:
// the whole ground set's composition, or the composition of the ranked
// items themselves.
func baselineShares(p perm.Perm, gr *Groups, baseline ExposureBaseline) ([]float64, error) {
	switch baseline {
	case BaselinePool:
		return gr.Shares(), nil
	case BaselinePrefix:
		shares := make([]float64, gr.NumGroups())
		if len(p) == 0 {
			return shares, nil
		}
		for _, item := range p {
			shares[gr.Of(item)]++
		}
		for g := range shares {
			shares[g] /= float64(len(p))
		}
		return shares, nil
	default:
		return nil, fmt.Errorf("fairness: unknown exposure baseline %d", baseline)
	}
}

// worstExposureRatio returns the minimum exposure/share ratio over
// groups with positive baseline share; 1 when every group is skipped.
func worstExposureRatio(exposure, shares []float64) float64 {
	worst := math.Inf(1)
	for g := range exposure {
		if shares[g] == 0 {
			continue
		}
		ratio := exposure[g] / shares[g]
		if ratio < worst {
			worst = ratio
		}
	}
	if math.IsInf(worst, 1) {
		return 1
	}
	return worst
}

// largestExposureGap returns the largest |exposure − share| over groups.
func largestExposureGap(exposure, shares []float64) float64 {
	var gap float64
	for g := range exposure {
		if d := math.Abs(exposure[g] - shares[g]); d > gap {
			gap = d
		}
	}
	return gap
}

// DisparateExposureAgainst returns the minimum over groups of
// (exposure share)/(baseline share) — 1 means every group receives
// attention exactly proportional to its baseline share, smaller values
// mean the worst-off group is under-exposed by that factor. Groups with
// zero baseline share are skipped; if every group is skipped the ratio
// is defined as 1.
func DisparateExposureAgainst(p perm.Perm, gr *Groups, disc ExposureDiscount, baseline ExposureBaseline) (float64, error) {
	exposure, err := GroupExposure(p, gr, disc)
	if err != nil {
		return 0, err
	}
	shares, err := baselineShares(p, gr, baseline)
	if err != nil {
		return 0, err
	}
	return worstExposureRatio(exposure, shares), nil
}

// ExposureGapAgainst returns the largest absolute difference between
// any group's exposure share and its baseline share; 0 means perfectly
// proportional attention under that baseline.
func ExposureGapAgainst(p perm.Perm, gr *Groups, disc ExposureDiscount, baseline ExposureBaseline) (float64, error) {
	exposure, err := GroupExposure(p, gr, disc)
	if err != nil {
		return 0, err
	}
	shares, err := baselineShares(p, gr, baseline)
	if err != nil {
		return 0, err
	}
	return largestExposureGap(exposure, shares), nil
}
