package rankers

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/perm"
)

// PlackettLuce is the §VI beyond-Mallows direction as a ranker: draw
// Samples Plackett–Luce rankings whose item weights decay exponentially
// with the rank in Initial (weight e^{−Strength·rank}, Gumbel-max
// sampling) and keep the best under the criterion. Like Mallows it reads
// neither Groups nor Bounds — the randomization stays attribute-blind.
type PlackettLuce struct {
	Strength  float64
	Samples   int
	Criterion core.Criterion
}

// Name implements Ranker.
func (p PlackettLuce) Name() string {
	return fmt.Sprintf("plackett-luce(s=%g,m=%d)", p.Strength, p.Samples)
}

// Rank implements Ranker.
func (p PlackettLuce) Rank(in Instance, rng *rand.Rand) (perm.Perm, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return core.PostProcess(in.Initial, in.Scores, core.Config{Noise: core.NoisePlackettLuce, Theta: p.Strength, Samples: p.Samples, Criterion: p.Criterion}, rng.Int63())
}
