package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fairness"
	"repro/internal/quality"
	"repro/internal/rankdist"
	"repro/internal/rankers"
	"repro/internal/stats"
)

// GermanBinary is an extension experiment beyond the paper: the §V-C
// setup restricted to the binary Sex attribute, where Wei et al.'s
// GrBinaryIPF computes the exact Kendall-tau-optimal fair ranking and
// can join the comparison. The figure reports, per ranking size, the
// median PPfair w.r.t. Sex and the mean Kendall tau distance to the
// initial ranking (the efficiency objective GrBinaryIPF optimizes) for
// GrBinaryIPF, ApproxMultiValuedIPF, the ILP, the Mallows arms, and a
// Plackett–Luce arm (the §VI beyond-Mallows mechanism).
func GermanBinary(cfg GermanConfig) (*Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(cfg.Thetas) == 0 {
		return nil, fmt.Errorf("experiments: german-binary needs a theta")
	}
	theta := cfg.Thetas[0]
	ds := dataset.SyntheticGermanCredit(rand.New(rand.NewSource(cfg.Seed)))

	arms := []rankers.Ranker{
		rankers.GrBinaryIPF{},
		rankers.ApproxMultiValuedIPF{},
		rankers.ILPRanker{},
		rankers.Mallows{Theta: theta, Samples: 1, Criterion: core.SelectFirst},
		rankers.Mallows{Theta: theta, Samples: cfg.BestOf, Criterion: core.SelectKT},
		// The beyond-Mallows arm (§VI): Plackett–Luce noise at the same
		// concentration and best-of count, so the figure shows how the
		// alternative mechanism trades fairness against KT efficiency.
		rankers.PlackettLuce{Strength: theta, Samples: cfg.BestOf, Criterion: core.SelectKT},
	}

	fig := &Figure{
		ID:     "figE1",
		Title:  fmt.Sprintf("Binary-attribute extension (Sex): fairness and KT efficiency (θ = %g)", theta),
		XLabel: "ranking size",
		YLabel: "median PPfair (Sex) / mean KT distance",
	}
	pFair := Panel{Title: "median PPfair w.r.t. Sex"}
	pKT := Panel{Title: "mean Kendall tau distance to the initial ranking"}

	for _, arm := range arms {
		sFair := Series{Label: arm.Name()}
		sKT := Series{Label: arm.Name()}
		for _, size := range cfg.Sizes {
			rng := rand.New(rand.NewSource(cellSeed(cfg.Seed, "binary|"+arm.Name(), size)))
			fairPt, ktPt, err := germanBinaryCell(ds, arm, size, cfg, rng)
			if err != nil {
				return nil, fmt.Errorf("experiments: german-binary %s at size %d: %w", arm.Name(), size, err)
			}
			sFair.Points = append(sFair.Points, fairPt)
			sKT.Points = append(sKT.Points, ktPt)
		}
		pFair.Series = append(pFair.Series, sFair)
		pKT.Series = append(pKT.Series, sKT)
	}
	fig.Panels = []Panel{pFair, pKT}
	return fig, nil
}

func germanBinaryCell(ds *dataset.Dataset, arm rankers.Ranker, size int, cfg GermanConfig, rng *rand.Rand) (fairPt, ktPt Point, err error) {
	sub, err := ds.TopByAmount(size)
	if err != nil {
		return Point{}, Point{}, err
	}
	scores := quality.Scores(sub.Scores())
	sex, err := fairness.NewGroups(sub.SexAssign(), 2)
	if err != nil {
		return Point{}, Point{}, err
	}
	cons, err := fairness.Proportional(sex, cfg.Tolerance)
	if err != nil {
		return Point{}, Point{}, err
	}
	k := cfg.CentralK
	if k > size {
		k = size
	}
	central, err := fairness.WeaklyFairRanking(scores, sex, cons, k)
	if err != nil {
		return Point{}, Point{}, err
	}
	in := rankers.Instance{
		Initial: central,
		Scores:  scores,
		Groups:  sex,
		Bounds:  cons.Table(size),
	}
	pps := make([]float64, 0, cfg.Reps)
	kts := make([]float64, 0, cfg.Reps)
	for rep := 0; rep < cfg.Reps; rep++ {
		out, err := arm.Rank(in, rng)
		if err != nil {
			return Point{}, Point{}, err
		}
		pp, err := fairness.PPfair(out, sex, cons)
		if err != nil {
			return Point{}, Point{}, err
		}
		kt, err := rankdist.KendallTau(out, central)
		if err != nil {
			return Point{}, Point{}, err
		}
		pps = append(pps, pp)
		kts = append(kts, float64(kt))
	}
	ivFair, err := stats.BootstrapMedian(pps, cfg.BootstrapN, cfg.Confidence, rng)
	if err != nil {
		return Point{}, Point{}, err
	}
	ivKT, err := stats.BootstrapMean(kts, cfg.BootstrapN, cfg.Confidence, rng)
	if err != nil {
		return Point{}, Point{}, err
	}
	x := float64(size)
	return Point{X: x, Y: ivFair.Point, Lo: ivFair.Lo, Hi: ivFair.Hi},
		Point{X: x, Y: ivKT.Point, Lo: ivKT.Lo, Hi: ivKT.Hi}, nil
}
