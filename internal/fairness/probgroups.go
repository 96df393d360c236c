package fairness

import (
	"fmt"
	"math"

	"repro/internal/perm"
)

// ProbGroups is the probabilistic counterpart of Groups: each item of
// the ground set carries a distribution over the g groups instead of a
// single label — the "noisy protected attribute" setting of Mehrotra &
// Vishnoi, where membership is estimated rather than observed.
//
// Every metric over ProbGroups is an expectation of its Groups
// counterpart under independent per-item memberships, computed so that
// a one-hot distribution reproduces the deterministic arithmetic bit
// for bit: one-hot rows contribute exact 1.0/0.0 terms to every sum,
// and float addition of small integers and x+0.0 are exact, so the
// expected prefix counts, shares, and exposures of a one-hot ProbGroups
// are the identical float64 values the Groups path computes. The
// one-hot equivalence suite in probgroups_test.go pins this.
type ProbGroups struct {
	dist [][]float64 // dist[item][g]: membership probability
	g    int
}

// probSumTol bounds how far a membership row's sum may stray from 1
// before it is rejected as non-normalized. Rows inside the tolerance
// are kept exactly as given (no renormalization), preserving one-hot
// bit-identity.
const probSumTol = 1e-9

// NewProbGroups validates the per-item distributions: every row must
// have one entry per group, every entry must be a finite probability in
// [0,1] (no NaN, no negative mass), and each row must sum to 1 within
// probSumTol. Rows are copied.
func NewProbGroups(dist [][]float64, numGroups int) (*ProbGroups, error) {
	if numGroups < 1 {
		return nil, fmt.Errorf("fairness: numGroups = %d, want ≥ 1", numGroups)
	}
	rows := make([][]float64, len(dist))
	for item, row := range dist {
		if len(row) != numGroups {
			return nil, fmt.Errorf("fairness: item %d has %d membership probabilities, want %d", item, len(row), numGroups)
		}
		sum := 0.0
		for g, p := range row {
			if math.IsNaN(p) || p < 0 || p > 1 {
				return nil, fmt.Errorf("fairness: item %d membership probability for group %d is %v, want in [0,1]", item, g, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > probSumTol {
			return nil, fmt.Errorf("fairness: item %d membership sums to %v, want 1", item, sum)
		}
		rows[item] = append([]float64(nil), row...)
	}
	return &ProbGroups{dist: rows, g: numGroups}, nil
}

// MustProbGroups is NewProbGroups for literals with known-good input.
func MustProbGroups(dist [][]float64, numGroups int) *ProbGroups {
	pg, err := NewProbGroups(dist, numGroups)
	if err != nil {
		panic(err)
	}
	return pg
}

// OneHot lifts a deterministic Groups into ProbGroups: item i's row is
// 1 at Of(i) and 0 elsewhere. Every expected metric of the lift equals
// the Groups metric bit for bit.
func OneHot(gr *Groups) *ProbGroups {
	dist := make([][]float64, gr.NumItems())
	for i := range dist {
		row := make([]float64, gr.g)
		row[gr.assign[i]] = 1
		dist[i] = row
	}
	return &ProbGroups{dist: dist, g: gr.g}
}

// NumGroups returns g.
func (pg *ProbGroups) NumGroups() int { return pg.g }

// NumItems returns the size of the ground set.
func (pg *ProbGroups) NumItems() int { return len(pg.dist) }

// ExpectedSizes returns the expected number of items per group:
// Σ_items P(item ∈ g).
func (pg *ProbGroups) ExpectedSizes() []float64 {
	sizes := make([]float64, pg.g)
	for _, row := range pg.dist {
		for g, p := range row {
			sizes[g] += p
		}
	}
	return sizes
}

// ExpectedShares returns each group's expected fraction of the ground
// set — the probabilistic Shares. For a one-hot lift this is Shares()
// bit for bit (integer-valued float sums divided by the same count).
func (pg *ProbGroups) ExpectedShares() []float64 {
	shares := pg.ExpectedSizes()
	if len(pg.dist) == 0 {
		return shares
	}
	for g := range shares {
		shares[g] /= float64(len(pg.dist))
	}
	return shares
}

// ProportionalProb builds proportional constraints centred on the
// expected shares, widened by tol — the probabilistic Proportional. For
// a one-hot lift the constraints equal Proportional(gr, tol) exactly.
func ProportionalProb(pg *ProbGroups, tol float64) (*Constraints, error) {
	if tol < 0 {
		return nil, fmt.Errorf("fairness: negative tolerance %v", tol)
	}
	shares := pg.ExpectedShares()
	alpha := make([]float64, len(shares))
	beta := make([]float64, len(shares))
	for i, s := range shares {
		alpha[i] = math.Max(0, s-tol)
		beta[i] = math.Min(1, s+tol)
	}
	return NewConstraints(alpha, beta)
}

// EvaluateExpectedViolations scans every prefix of p against the bound
// table with expected group counts in place of exact ones: prefix ell
// under-represents group g when E[count] < Lower[ell][g] and
// over-represents it when E[count] > Upper[ell][g]. For a one-hot
// ProbGroups the expected counts are exact small integers, so the
// verdicts equal EvaluateViolations' bit for bit; fractional
// memberships yield the natural expected-count relaxation.
func EvaluateExpectedViolations(p perm.Perm, pg *ProbGroups, b *Bounds) (*Violations, error) {
	if b.K() < len(p) {
		return nil, fmt.Errorf("fairness: bounds cover %d prefixes, ranking has %d", b.K(), len(p))
	}
	if pg.NumItems() < len(p) {
		return nil, fmt.Errorf("fairness: memberships cover %d items, ranking has %d", pg.NumItems(), len(p))
	}
	v := &Violations{
		Lower: make([]bool, len(p)),
		Upper: make([]bool, len(p)),
	}
	running := make([]float64, pg.g)
	for r, item := range p {
		for g, pr := range pg.dist[item] {
			running[g] += pr
		}
		for g, cnt := range running {
			if cnt < float64(b.Lower[r][g]) {
				v.Lower[r] = true
			}
			if cnt > float64(b.Upper[r][g]) {
				v.Upper[r] = true
			}
		}
	}
	return v, nil
}

// ExpectedPPfairAt evaluates the probabilistic Definition 4 over the
// first k prefixes: 100·(1 − expected-count violations among prefixes
// 1…k under c / k).
func ExpectedPPfairAt(p perm.Perm, pg *ProbGroups, c *Constraints, k int) (float64, error) {
	if k < 1 || k > len(p) {
		return 0, fmt.Errorf("fairness: k = %d outside [1,%d]", k, len(p))
	}
	v, err := EvaluateExpectedViolations(p, pg, c.Table(len(p)))
	if err != nil {
		return 0, err
	}
	return 100 * (1 - float64(v.TwoSidedAt(k))/float64(k)), nil
}

// ExpectedGroupExposure returns each group's expected share of the
// total attention of the ranking: exposure[g] = Σ_r w(r)·P(p[r] ∈ g)
// normalized by Σ_r w(r). A nil discount means LogExposure. For a
// one-hot ProbGroups this is GroupExposure bit for bit.
func ExpectedGroupExposure(p perm.Perm, pg *ProbGroups, disc ExposureDiscount) ([]float64, error) {
	if pg.NumItems() < len(p) {
		return nil, fmt.Errorf("fairness: memberships cover %d items, ranking has %d", pg.NumItems(), len(p))
	}
	if disc == nil {
		disc = LogExposure
	}
	exposure := make([]float64, pg.g)
	var total float64
	for r, item := range p {
		w := disc(r + 1)
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("fairness: discount at rank %d is %v", r+1, w)
		}
		for g, pr := range pg.dist[item] {
			exposure[g] += w * pr
		}
		total += w
	}
	if total > 0 {
		for g := range exposure {
			exposure[g] /= total
		}
	}
	return exposure, nil
}

// expectedBaselineShares returns the reference shares the expected
// exposure is compared against under the chosen baseline: the whole
// ground set's expected shares, or the expected composition of the
// ranked items themselves.
func expectedBaselineShares(p perm.Perm, pg *ProbGroups, baseline ExposureBaseline) ([]float64, error) {
	switch baseline {
	case BaselinePool:
		return pg.ExpectedShares(), nil
	case BaselinePrefix:
		shares := make([]float64, pg.g)
		if len(p) == 0 {
			return shares, nil
		}
		for _, item := range p {
			for g, pr := range pg.dist[item] {
				shares[g] += pr
			}
		}
		for g := range shares {
			shares[g] /= float64(len(p))
		}
		return shares, nil
	default:
		return nil, fmt.Errorf("fairness: unknown exposure baseline %d", baseline)
	}
}

// ExpectedDisparateExposureAgainst is DisparateExposureAgainst in
// expectation: the minimum over groups of (expected exposure
// share)/(expected baseline share), skipping groups with no expected
// mass in the baseline; 1 when every group is skipped.
func ExpectedDisparateExposureAgainst(p perm.Perm, pg *ProbGroups, disc ExposureDiscount, baseline ExposureBaseline) (float64, error) {
	exposure, err := ExpectedGroupExposure(p, pg, disc)
	if err != nil {
		return 0, err
	}
	shares, err := expectedBaselineShares(p, pg, baseline)
	if err != nil {
		return 0, err
	}
	return worstExposureRatio(exposure, shares), nil
}

// ExpectedExposureGapAgainst is ExposureGapAgainst in expectation: the
// largest |expected exposure share − expected baseline share| over the
// groups.
func ExpectedExposureGapAgainst(p perm.Perm, pg *ProbGroups, disc ExposureDiscount, baseline ExposureBaseline) (float64, error) {
	exposure, err := ExpectedGroupExposure(p, pg, disc)
	if err != nil {
		return 0, err
	}
	shares, err := expectedBaselineShares(p, pg, baseline)
	if err != nil {
		return 0, err
	}
	return largestExposureGap(exposure, shares), nil
}
