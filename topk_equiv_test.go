package fairrank

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/quality"
)

// TestTopKMatchesFullPath is the engine-level equivalence gate of the
// draw path: for every registered algorithm × noise pair, both
// selection criteria of the best-of entries, and an (n, k, θ) grid
// covering k = 1, k = n, k > n, and the θ = 0 uniform limit, a TopK
// request served normally (the truncated kernel wherever k < n) must
// return exactly — ranking and diagnostics — what referenceDo, an
// independent best-of loop over full-length reference draws, returns
// for the same seed: through Do, through DoParallel over three workers,
// and across a Sample sweep. Run it under -race to also exercise the
// pooled buffers and shared criterion state across the parallel
// fan-out.
func TestTopKMatchesFullPath(t *testing.T) {
	type dims struct{ n, k int }
	grid := []dims{{6, 1}, {12, 5}, {12, 12}, {12, 40}, {18, 7}}
	thetas := []float64{0, 1.3}
	for _, info := range Algorithms() {
		if strings.HasPrefix(info.Name, "test:") {
			continue
		}
		criteria := []Criterion{CriterionNDCG}
		if info.BestOf {
			criteria = append(criteria, CriterionKT)
		}
		noises := []string{""}
		if info.Sampling && info.Noise == "" {
			noises = noises[:0]
			for _, ni := range Noises() {
				noises = append(noises, ni.Name)
			}
		}
		for _, noise := range noises {
			for _, theta := range thetas {
				for _, d := range grid {
					name := info.Name
					if noise != "" {
						name += "×" + noise
					}
					t.Run(name, func(t *testing.T) {
						r, err := NewRanker(Config{Algorithm: Algorithm(info.Name)})
						if err != nil {
							t.Fatal(err)
						}
						for _, crit := range criteria {
							req := Request{
								Candidates: pool(d.n),
								Theta:      &theta,
								Criterion:  crit,
								Noise:      Noise(noise),
								TopK:       iptr(d.k),
								Seed:       sptr(int64(d.n*100 + d.k)),
							}
							want, err := referenceDo(r, req)
							if err != nil {
								t.Fatal(err)
							}
							for _, workers := range []int{0, 3} {
								var got *Result
								if workers == 0 {
									got, err = r.Do(context.Background(), req)
								} else {
									got, err = r.DoParallel(context.Background(), req, workers)
								}
								if err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(got, want) {
									t.Errorf("n=%d k=%d θ=%g %s workers=%d: engine diverged from the reference\nengine %+v\nref    %+v", d.n, d.k, theta, crit, workers, got, want)
								}
							}
							// Multi-draw sweeps run draw i on seed
							// SampleSeed(seed, i); the draw path must stay
							// aligned across the whole sweep, not just
							// draw 0.
							var sweep []*Result
							if err := r.Sample(context.Background(), req, 4, func(_ int, res *Result) error {
								sweep = append(sweep, res)
								return nil
							}); err != nil {
								t.Fatal(err)
							}
							for i, got := range sweep {
								draw := req
								draw.Seed = sptr(SampleSeed(*req.Seed, i))
								want, err := referenceDo(r, draw)
								if err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(got, want) {
									t.Errorf("n=%d k=%d θ=%g %s: Sample draw %d diverged from the reference", d.n, d.k, theta, crit, i)
								}
							}
						}
						// The engine must actually have used the truncated
						// path where it applies: every noise mechanism with
						// a true prefix, not just Mallows.
						stats := r.Stats()
						resolved := info.Noise
						if info.Sampling && resolved == "" {
							resolved = Noise(noise)
						}
						if info.Sampling && d.k < d.n {
							if stats.DrawsTruncated == 0 {
								t.Errorf("n=%d k=%d: no truncated draws recorded on the %s draw path (stats %+v)", d.n, d.k, resolved, stats)
							}
							if stats.DrawsTruncatedByNoise[string(resolved)] == 0 {
								t.Errorf("n=%d k=%d: truncated draws not attributed to noise %q (per-noise %v)", d.n, d.k, resolved, stats.DrawsTruncatedByNoise)
							}
						}
						var axes int64
						for _, c := range stats.DrawsTruncatedByNoise {
							axes += c
						}
						if axes != stats.DrawsTruncated {
							t.Errorf("per-noise truncation axes sum to %d, total is %d", axes, stats.DrawsTruncated)
						}
						if stats.DrawsFull+stats.DrawsTruncated != stats.Draws {
							t.Errorf("draw-path split %d + %d does not sum to draws %d", stats.DrawsFull, stats.DrawsTruncated, stats.Draws)
						}
					})
				}
			}
		}
	}
}

// referenceDo serves req the plain way, independently of the engine's
// draw path: Algorithm 1 as a best-of loop over full-length draws from
// the resolved axis's reference sampler (core.Axes[axis].Reference).
// Draw i comes from a fresh stream seeded with core.MixSeed(seed, i).
// Each draw is scored on its top-k prefix — NDCG@k against the
// pool-wide ideal, or minus the Kendall tau pairs the prefix orders
// against the central — and the first maximum is kept. Non-sampling
// algorithms run their Strategy on the stream of draw 0. diagnose
// audits the winner.
func referenceDo(r *Ranker, req Request) (*Result, error) {
	p, err := r.prepare(context.Background(), req)
	if err != nil {
		return nil, err
	}
	cfg, info, in, k := p.cfg, p.entry.info, p.in, p.topK
	if !info.Sampling {
		strat, err := p.entry.factory(cfg)
		if err != nil {
			return nil, err
		}
		idx, err := strat.Rank(&Instance{in: in}, rand.New(rand.NewSource(core.MixSeed(cfg.Seed, 0))))
		if err != nil {
			return nil, err
		}
		return referenceResult(p, perm.Perm(idx), 0, false, 0, "")
	}
	noise := info.Noise
	if noise == "" {
		noise = cfg.Noise
	}
	axis, ok := core.Axes[core.Noise(noise)]
	if !ok {
		return nil, fmt.Errorf("no noise axis %q", noise)
	}
	sample, err := axis.Reference(in.Initial, cfg.Theta)
	if err != nil {
		return nil, err
	}
	samples := 1
	if info.BestOf {
		samples = cfg.Samples
	}
	idcg, err := quality.IDCG(in.Initial, in.Scores, k)
	if err != nil {
		return nil, err
	}
	pos := in.Initial.Positions()
	score := func(d perm.Perm) float64 {
		if cfg.Criterion == CriterionKT {
			var pairs int
			for i := 0; i < k; i++ {
				for j := i + 1; j < k; j++ {
					if pos[d[i]] > pos[d[j]] {
						pairs++
					}
				}
			}
			return -float64(pairs)
		}
		dcg, _ := quality.DCG(d, in.Scores, k)
		if idcg == 0 {
			return 1
		}
		return dcg / idcg
	}
	var best perm.Perm
	var bestScore float64
	for i := 0; i < samples; i++ {
		d := perm.Perm(sample(rand.New(rand.NewSource(core.MixSeed(cfg.Seed, i))))).Clone()
		if v := score(d); best == nil || v > bestScore {
			best, bestScore = d, v
		}
	}
	if !info.BestOf {
		bestScore = 0
	}
	return referenceResult(p, best, bestScore, info.BestOf, samples, Noise(noise))
}

func referenceResult(p prepared, out perm.Perm, score float64, scored bool, draws int, noise Noise) (*Result, error) {
	diag, err := diagnose(p.in, p.cfg, out, p.topK, score, scored, draws, noise)
	if err != nil {
		return nil, err
	}
	return &Result{Ranking: pickCandidates(p.candidates, out[:p.topK]), Diagnostics: diag}, nil
}
