package fairrank

import (
	"context"
	"fmt"
	"testing"
)

// TestDoSteadyStateZeroAllocPerDraw pins the allocation-free draw path:
// on a warm Ranker the marginal heap cost of a draw must be zero — all
// per-draw state (sample buffers, criterion scratch, RNGs) comes from
// pools built per request or cached per size. Per-request setup may
// allocate; per-draw must not.
//
// The measurement is differential: the same request at Samples = 1 and
// Samples = 1+extraDraws, so every per-request constant (instance
// build, result assembly, diagnostics) cancels and only the per-draw
// marginal remains. DoParallel runs each case too, from Samples = 2
// (at Samples = 1 the one draw runs inline, as Do's do) to 2+extraDraws
// over two workers, pinning the fan-out loop's per-draw cost. If pooling
// breaks, this fails loudly with the per-draw allocation count so the
// offending path is obvious.
func TestDoSteadyStateZeroAllocPerDraw(t *testing.T) {
	const n = 64
	const extraDraws = 100
	cases := []struct {
		name      string
		criterion Criterion
		noise     Noise // "" = the default Mallows mechanism
		theta     float64
		topK      int // 0 = full ranking
	}{
		{"ndcg/full", CriterionNDCG, "", 1.2, 0},
		{"ndcg/topk", CriterionNDCG, "", 1.2, 8},
		{"kt/full", CriterionKT, "", 1.2, 0},
		{"kt/topk", CriterionKT, "", 1.2, 8},
		{"uniform/topk", CriterionNDCG, "", 0, 8},
		{"gmallows/full", CriterionNDCG, NoiseGMallows, 1.2, 0},
		{"gmallows/topk", CriterionNDCG, NoiseGMallows, 1.2, 8},
		{"gmallows/kt/full", CriterionKT, NoiseGMallows, 1.2, 0},
		{"gmallows/kt/topk", CriterionKT, NoiseGMallows, 1.2, 8},
		{"plackett-luce/full", CriterionNDCG, NoisePlackettLuce, 1.2, 0},
		{"plackett-luce/topk", CriterionNDCG, NoisePlackettLuce, 1.2, 8},
		{"plackett-luce/kt/full", CriterionKT, NoisePlackettLuce, 1.2, 0},
		{"plackett-luce/kt/topk", CriterionKT, NoisePlackettLuce, 1.2, 8},
	}
	for _, c := range cases {
		for _, workers := range []int{0, 2} {
			name, minSamples := c.name, 1
			if workers > 0 {
				name, minSamples = c.name+"/parallel", 2
			}
			t.Run(name, func(t *testing.T) {
				r, err := NewRanker(Config{Algorithm: AlgorithmMallowsBest, Criterion: c.criterion, Noise: c.noise})
				if err != nil {
					t.Fatal(err)
				}
				cands := pool(n)
				run := func(samples int) func() {
					req := Request{
						Candidates: cands,
						Theta:      &c.theta,
						Samples:    &samples,
						Seed:       sptr(11),
					}
					if c.topK > 0 {
						req.TopK = iptr(c.topK)
					}
					return func() {
						var err error
						if workers > 0 {
							_, err = r.DoParallel(context.Background(), req, workers)
						} else {
							_, err = r.Do(context.Background(), req)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				// Warm the caches off the measurement: tables, discounts,
				// scratch pools, RNG pool.
				run(minSamples)()
				base := testing.AllocsPerRun(20, run(minSamples))
				long := testing.AllocsPerRun(20, run(minSamples+extraDraws))
				perDraw := (long - base) / extraDraws
				if perDraw >= 0.5 {
					t.Fatal(allocReport(perDraw, base, long, minSamples, minSamples+extraDraws))
				}
			})
		}
	}
}

// allocReport spells out the failure so a pooling regression is
// diagnosable from the test log alone.
func allocReport(perDraw, base, long float64, from, to int) string {
	return fmt.Sprintf(
		"steady-state Do allocates %.2f heap objects PER DRAW (%.1f allocs at %d samples vs %.1f at %d) — the draw path must be allocation-free; look for a buffer, scratch slice, or closure that escaped the per-request pools into the best-of-m loop",
		perDraw, base, from, long, to)
}
