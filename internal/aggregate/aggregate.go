// Package aggregate implements rank aggregation: combining a collection
// of rankings (votes) into one consensus ranking. The paper's §IV-A
// names "the result of a rank aggregation problem" as a natural central
// ranking for the Mallows mechanism, and its related work (Wei et al.,
// Chakraborty et al.) builds fair rankings on top of exactly these
// aggregates.
//
// Provided aggregators:
//
//   - KemenyExact   — the Kendall tau median ranking, exact via Held–Karp
//     style bitmask DP (NP-hard in general; practical to ~20 items)
//   - Footrule      — the Spearman footrule median via minimum-cost
//     bipartite matching (polynomial; a classic 2-approximation of Kemeny)
//   - Borda         — items by mean rank (a 5-approximation of Kemeny and
//     a consistent estimator of the Mallows center)
package aggregate

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/assignment"
	"repro/internal/perm"
	"repro/internal/rankdist"
)

// MaxKemenyItems bounds the exact Kemeny solver's bitmask DP.
const MaxKemenyItems = 20

// validateVotes checks a non-empty collection of equal-size rankings.
func validateVotes(votes []perm.Perm) (int, error) {
	if len(votes) == 0 {
		return 0, fmt.Errorf("aggregate: no votes")
	}
	n := len(votes[0])
	for i, v := range votes {
		if len(v) != n {
			return 0, fmt.Errorf("aggregate: vote %d ranks %d items, want %d", i, len(v), n)
		}
		if err := v.Validate(); err != nil {
			return 0, fmt.Errorf("aggregate: vote %d: %w", i, err)
		}
	}
	return n, nil
}

// prefCounts returns pref[a][b] = number of votes ranking a before b.
func prefCounts(votes []perm.Perm, n int) [][]int {
	pref := make([][]int, n)
	for i := range pref {
		pref[i] = make([]int, n)
	}
	for _, v := range votes {
		pos := v.Positions()
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if pos[a] < pos[b] {
					pref[a][b]++
				} else {
					pref[b][a]++
				}
			}
		}
	}
	return pref
}

// KemenyCost returns the total Kendall tau distance from p to the votes
// — the objective Kemeny aggregation minimizes.
func KemenyCost(p perm.Perm, votes []perm.Perm) (int64, error) {
	var total int64
	for i, v := range votes {
		d, err := rankdist.KendallTau(p, v)
		if err != nil {
			return 0, fmt.Errorf("aggregate: vote %d: %w", i, err)
		}
		total += d
	}
	return total, nil
}

// KemenyExact returns a ranking minimizing the total Kendall tau
// distance to the votes, together with that optimal cost. Exact dynamic
// programming over subsets: appending item i to a placed set S costs the
// votes preferring each unplaced j≠i over i. O(2ⁿ·n²) time, O(2ⁿ) space;
// n is capped at MaxKemenyItems.
func KemenyExact(votes []perm.Perm) (perm.Perm, int64, error) {
	n, err := validateVotes(votes)
	if err != nil {
		return nil, 0, err
	}
	if n > MaxKemenyItems {
		return nil, 0, fmt.Errorf("aggregate: exact Kemeny supports ≤ %d items, have %d", MaxKemenyItems, n)
	}
	if n == 0 {
		return perm.Perm{}, 0, nil
	}
	pref := prefCounts(votes, n)

	size := 1 << n
	dp := make([]int64, size)
	parent := make([]int8, size)
	for s := 1; s < size; s++ {
		dp[s] = math.MaxInt64
	}
	for s := 0; s < size-1; s++ {
		if dp[s] == math.MaxInt64 {
			continue
		}
		for i := 0; i < n; i++ {
			if s&(1<<i) != 0 {
				continue
			}
			// Cost of placing i next: every item j still unplaced after i
			// ends up below i, flipping the votes that prefer j over i.
			var add int64
			rest := ^(s | 1<<i) & (size - 1)
			for t := rest; t != 0; t &= t - 1 {
				j := bits.TrailingZeros(uint(t))
				add += int64(pref[j][i])
			}
			ns := s | 1<<i
			if c := dp[s] + add; c < dp[ns] {
				dp[ns] = c
				parent[ns] = int8(i)
			}
		}
	}
	// parent[s] is the item placed last (deepest) among the set s, so
	// walking down from the full set fills the ranking bottom-up.
	out := make(perm.Perm, n)
	s := size - 1
	for r := n - 1; r >= 0; r-- {
		i := int(parent[s])
		out[r] = i
		s &^= 1 << i
	}
	return out, dp[size-1], nil
}

// Footrule returns the ranking minimizing the total Spearman footrule
// distance to the votes, via one minimum-cost assignment of items to
// positions with cost Σ_votes |pos_vote(item) − position|. Polynomial
// and a 2-approximation of the Kemeny optimum (Diaconis–Graham).
func Footrule(votes []perm.Perm) (perm.Perm, int64, error) {
	n, err := validateVotes(votes)
	if err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return perm.Perm{}, 0, nil
	}
	positions := make([]perm.Perm, len(votes))
	for i, v := range votes {
		positions[i] = v.Positions()
	}
	cost := make([][]float64, n)
	for item := 0; item < n; item++ {
		row := make([]float64, n)
		for p := 0; p < n; p++ {
			var c float64
			for _, pos := range positions {
				c += math.Abs(float64(pos[item] - p))
			}
			row[p] = c
		}
		cost[item] = row
	}
	match, total, err := assignment.Solve(cost)
	if err != nil {
		return nil, 0, err
	}
	out := make(perm.Perm, n)
	for item, p := range match {
		out[p] = item
	}
	return out, int64(math.Round(total)), nil
}

// Borda returns the items ordered by mean rank across the votes (ties
// by item id). A 5-approximation of Kemeny and the classic consistent
// estimator of a Mallows center.
func Borda(votes []perm.Perm) (perm.Perm, error) {
	n, err := validateVotes(votes)
	if err != nil {
		return nil, err
	}
	sums := make([]int64, n)
	for _, v := range votes {
		for r, item := range v {
			sums[item] += int64(r)
		}
	}
	out := perm.Identity(n)
	sort.SliceStable(out, func(a, b int) bool { return sums[out[a]] < sums[out[b]] })
	return out, nil
}
