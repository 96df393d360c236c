package pl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/perm"
)

func TestSamplerMatchesExactProbabilities(t *testing.T) {
	weights := []float64{4, 2, 1}
	logw := make([]float64, len(weights))
	for i, w := range weights {
		logw[i] = math.Log(w)
	}
	// prob is the closed form P[π] = ∏_r w(π(r)) / Σ_{r'≥r} w(π(r')).
	prob := func(p perm.Perm) float64 {
		pr := 1.0
		for r := range p {
			var rest float64
			for _, item := range p[r:] {
				rest += weights[item]
			}
			pr *= weights[p[r]] / rest
		}
		return pr
	}
	rng := rand.New(rand.NewSource(100))
	const samples = 60000
	freq := map[string]float64{}
	for i := 0; i < samples; i++ {
		freq[SampleLogWeights(logw, rng).String()]++
	}
	var tv float64
	perm.All(3, func(p perm.Perm) bool {
		tv += math.Abs(freq[p.String()]/samples - prob(p))
		return true
	})
	tv /= 2
	if tv > 0.01 {
		t.Fatalf("total variation distance %v too large", tv)
	}
}
