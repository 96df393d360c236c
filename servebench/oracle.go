package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
)

// The oracle decodes only what it checks, so its own cost stays small
// next to the server's; unknown fields are ignored.
type wireRow struct {
	Rank  int     `json:"rank"`
	ID    string  `json:"id"`
	Score float64 `json:"score"`
	Group string  `json:"group"`
	Attrs struct {
		Shadow string `json:"shadow"`
	} `json:"attrs"`
}

type wireRank struct {
	Ranking     []wireRow `json:"ranking"`
	NDCG        float64   `json:"ndcg"`
	Diagnostics struct {
		NDCG            float64 `json:"ndcg"`
		PPfair          float64 `json:"ppfair"`
		InfeasibleIndex int     `json:"infeasible_index"`
		TopK            int     `json:"top_k"`
	} `json:"diagnostics"`
}

type wireBatch struct {
	Items []struct {
		Response *wireRank `json:"response"`
		Error    string    `json:"error"`
	} `json:"items"`
}

// measures is the paper's two measures of one ranking, recomputed from
// the returned rows.
type measures struct {
	ndcg         float64
	ppfair       float64
	ppfairHidden float64
}

// checkTol is the agreement the oracle demands between the served
// diagnostics and its own recomputation.
const checkTol = 1e-9

// checkResponse verifies one response against its call and returns the
// recomputed quality of each ranking it carries.
func checkResponse(c *call, batch bool, status int, body []byte) ([]measures, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	if !batch {
		var r wireRank
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("undecodable response: %v", err)
		}
		q, err := checkRanking(&c.entries[0], &r)
		if err != nil {
			return nil, err
		}
		return []measures{q}, nil
	}
	var b wireBatch
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, fmt.Errorf("undecodable batch response: %v", err)
	}
	if len(b.Items) != len(c.entries) {
		return nil, fmt.Errorf("batch returned %d items for %d entries", len(b.Items), len(c.entries))
	}
	qs := make([]measures, len(c.entries))
	for i, item := range b.Items {
		if item.Error != "" || item.Response == nil {
			return nil, fmt.Errorf("batch item %d failed: %q", i, item.Error)
		}
		q, err := checkRanking(&c.entries[i], item.Response)
		if err != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, err)
		}
		qs[i] = q
	}
	return qs, nil
}

// checkRanking checks one ranking: a duplicate-free subset of the pool of
// the expected length with ranks 1..k, rows echoing the request's
// candidates, and diagnostics matching an independent recomputation.
func checkRanking(e *entry, r *wireRank) (measures, error) {
	p := e.pool
	k := len(r.Ranking)
	if k != e.topK {
		return measures{}, fmt.Errorf("ranking has %d rows, want %d", k, e.topK)
	}
	if r.Diagnostics.TopK != k {
		return measures{}, fmt.Errorf("diagnostics top_k %d for %d rows", r.Diagnostics.TopK, k)
	}
	seen := make([]bool, p.n())
	groups := make([]uint8, k)
	shadows := make([]uint8, k)
	var dcg float64
	for i, row := range r.Ranking {
		if row.Rank != i+1 {
			return measures{}, fmt.Errorf("row %d has rank %d", i, row.Rank)
		}
		idx := candidateIndex(row.ID)
		if idx < 0 || idx >= p.n() {
			return measures{}, fmt.Errorf("row %d: id %q is not in the request", i, row.ID)
		}
		if seen[idx] {
			return measures{}, fmt.Errorf("row %d: duplicate id %q", i, row.ID)
		}
		seen[idx] = true
		if row.Score != p.score[idx] || row.Group != p.groupNames[p.group[idx]] || row.Attrs.Shadow != p.shadowNames[p.shadow[idx]] {
			return measures{}, fmt.Errorf("row %d: %q does not echo the request's candidate", i, row.ID)
		}
		groups[i] = p.group[idx]
		shadows[i] = p.shadow[idx]
		dcg += p.score[idx] * discount(i)
	}
	ndcg := 1.0
	if p.idcg[k] != 0 {
		ndcg = dcg / p.idcg[k]
	}
	ii := infeasibleIndex(groups, p.groupShares, tolerance)
	hidden := infeasibleIndex(shadows, p.shadowShares, tolerance)
	q := measures{ndcg: ndcg, ppfair: ppfair(ii, k), ppfairHidden: ppfair(hidden, k)}
	d := r.Diagnostics
	switch {
	case math.Abs(d.NDCG-q.ndcg) > checkTol:
		return measures{}, fmt.Errorf("diagnostics ndcg %v, recomputed %v", d.NDCG, q.ndcg)
	case math.Abs(r.NDCG-q.ndcg) > checkTol:
		return measures{}, fmt.Errorf("ndcg %v, recomputed %v", r.NDCG, q.ndcg)
	case d.InfeasibleIndex != ii:
		return measures{}, fmt.Errorf("diagnostics infeasible_index %d, recomputed %d", d.InfeasibleIndex, ii)
	case math.Abs(d.PPfair-q.ppfair) > checkTol:
		return measures{}, fmt.Errorf("diagnostics ppfair %v, recomputed %v", d.PPfair, q.ppfair)
	}
	return q, nil
}

// infeasibleIndex is the Two-Sided Infeasible Index of a ranking's label
// sequence over its prefixes 1..len(labels): each prefix counts once for
// a label below ⌊max(0, share−tol)·ℓ⌋ and once for a label above
// ⌈min(1, share+tol)·ℓ⌉, with shares taken over the whole pool.
func infeasibleIndex(labels []uint8, shares []float64, tol float64) int {
	counts := make([]int, len(shares))
	ii := 0
	for r, l := range labels {
		counts[l]++
		ell := float64(r + 1)
		lower, upper := false, false
		for g, s := range shares {
			if counts[g] < int(math.Floor(math.Max(0, s-tol)*ell)) {
				lower = true
			}
			if counts[g] > int(math.Ceil(math.Min(1, s+tol)*ell)) {
				upper = true
			}
		}
		if lower {
			ii++
		}
		if upper {
			ii++
		}
	}
	return ii
}

// ppfair is the percentage of P-fair prefixes (the paper's Definition 4).
func ppfair(ii, k int) float64 { return 100 * (1 - float64(ii)/float64(k)) }
