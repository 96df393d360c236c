package fairness

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/perm"
)

// WeaklyFairRanking builds an (α,β)-weak k-fair ranking of all items,
// greedily favouring score: the top-k set takes each group's ⌊α_g·k⌋
// best-scored members first, fills the remaining slots with the
// best-scored candidates whose group has not hit ⌈β_g·k⌉, and then both
// the top-k set and the remainder are ordered by non-increasing score.
//
// Weak k-fairness constrains only the *membership* of the k-prefix
// (Definition 2), so score order within it is optimal; the result is the
// NDCG-greedy weakly fair ranking and serves as the central permutation
// for the Mallows mechanism (§IV-A).
//
// scores[i] is the score of item i; the ranking covers all len(scores)
// items. Ties break toward lower item id for determinism. Scores must not
// be NaN, which has no place in a score order; callers reject it first.
func WeaklyFairRanking(scores []float64, gr *Groups, c *Constraints, k int) (perm.Perm, error) {
	d := len(scores)
	if gr.NumItems() != d {
		return nil, fmt.Errorf("fairness: %d scores vs %d items in groups", d, gr.NumItems())
	}
	if gr.NumGroups() != c.NumGroups() {
		return nil, fmt.Errorf("fairness: %d groups vs %d constrained groups", gr.NumGroups(), c.NumGroups())
	}
	if k < 1 || k > d {
		return nil, fmt.Errorf("fairness: k = %d outside [1,%d]", k, d)
	}

	sizes := gr.Sizes()
	g := gr.NumGroups()
	need := make([]int, g) // lower bounds at prefix k
	cap_ := make([]int, g) // upper bounds at prefix k, clamped to pool
	sumNeed, sumCap := 0, 0
	for gid := 0; gid < g; gid++ {
		need[gid] = c.LowerAt(gid, k)
		if need[gid] > sizes[gid] {
			return nil, fmt.Errorf("fairness: weak %d-fairness needs %d of group %d but pool has %d",
				k, need[gid], gid, sizes[gid])
		}
		cap_[gid] = c.UpperAt(gid, k)
		if cap_[gid] > sizes[gid] {
			cap_[gid] = sizes[gid]
		}
		sumNeed += need[gid]
		sumCap += cap_[gid]
	}
	if sumNeed > k {
		return nil, fmt.Errorf("fairness: weak %d-fairness lower bounds sum to %d > %d", k, sumNeed, k)
	}
	if sumCap < k {
		return nil, fmt.Errorf("fairness: weak %d-fairness upper bounds admit only %d < %d items", k, sumCap, k)
	}

	// Items by non-increasing score, id-ascending on ties: the order a
	// stable sort of the identity gives, from an unstable sort whose ties
	// are broken by the items' ids.
	byScore := perm.Identity(d)
	slices.SortFunc(byScore, func(a, b int) int {
		if c := cmp.Compare(scores[b], scores[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	selected := make([]bool, d)
	taken := make([]int, g)
	// Phase 1: per-group lower bounds with each group's best members.
	for _, item := range byScore {
		gid := gr.Of(item)
		if taken[gid] < need[gid] {
			selected[item] = true
			taken[gid]++
		}
	}
	picked := sumNeed
	// Phase 2: fill remaining slots by score, respecting caps.
	for _, item := range byScore {
		if picked == k {
			break
		}
		gid := gr.Of(item)
		if !selected[item] && taken[gid] < cap_[gid] {
			selected[item] = true
			taken[gid]++
			picked++
		}
	}
	if picked != k {
		// Caps admitted ≥ k in aggregate, so phase 2 always fills up.
		return nil, fmt.Errorf("fairness: internal error, selected %d of %d slots", picked, k)
	}

	out := make(perm.Perm, 0, d)
	for _, item := range byScore {
		if selected[item] {
			out = append(out, item)
		}
	}
	for _, item := range byScore {
		if !selected[item] {
			out = append(out, item)
		}
	}
	return out, nil
}
