package fairrank

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// Sample serves one request draws times, calling observe with each
// result in draw order. It is the multi-draw hook behind statistical
// verification (internal/conformance) and any caller that studies the
// distribution of rankings rather than a single one: the candidate pool
// is validated and the ranking instance (groups, constraints, central
// ranking) is assembled once, then reused for every draw, so sampling
// thousands of rankings costs thousands of draws — not thousands of
// instance builds or HTTP round-trips through the serving layer.
//
// Draw i runs with the resolved request's seed replaced by
// SampleSeed(seed, i), a splitmix64 mix: the per-draw streams are
// decorrelated, the whole sweep is reproducible from the one resolved
// seed, and any single draw can be replayed in isolation through Do by
// setting Request.Seed to the Diagnostics.Seed the observed result
// carried. Two Sample calls with equal resolved requests observe
// identical result sequences.
//
// ctx is checked before every draw (and, for the sampling algorithms,
// between their inner best-of-m draws); a cancelled context aborts the
// sweep with ctx.Err(). A non-nil error from observe aborts the sweep
// and is returned verbatim.
func (r *Ranker) Sample(ctx context.Context, req Request, draws int, observe func(draw int, res *Result) error) error {
	if draws < 1 {
		return fmt.Errorf("fairrank: sample draws = %d, want ≥ 1", draws)
	}
	if observe == nil {
		return fmt.Errorf("fairrank: nil observe func")
	}
	p, err := r.prepare(ctx, req)
	if err != nil {
		return err
	}
	base := p.cfg.Seed
	for i := 0; i < draws; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.cfg.Seed = SampleSeed(base, i)
		res, err := r.rank(ctx, p, 1)
		if err != nil {
			return fmt.Errorf("fairrank: sample draw %d (seed %d): %w", i, p.cfg.Seed, err)
		}
		if err := observe(i, res); err != nil {
			return err
		}
	}
	return nil
}

// SampleSeed derives the seed of Sample's draw i from the resolved
// request seed. Exported so a draw flagged by a verification sweep can
// be replayed in isolation (set Request.Seed to SampleSeed(seed, i) and
// call Do) without rerunning the sweep.
func SampleSeed(seed int64, draw int) int64 { return core.MixSeed(seed, draw) }
