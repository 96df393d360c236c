package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/perm"
	"repro/internal/quality"
)

// FuzzWorkerInvariance pins the determinism contract of the best-of
// loop: for any seed, pool size n ≤ 64, prefix k ≤ n, sample count
// m ≤ 16, noise axis, dispersion and criterion, Best returns the same
// ranking and score at every worker count up to the fuzzed one as it
// does inline at one worker.
func FuzzWorkerInvariance(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(5), uint8(7), uint8(3), uint8(0), uint8(1), uint8(32))
	f.Add(int64(-9), uint8(63), uint8(63), uint8(15), uint8(7), uint8(1), uint8(2), uint8(0))
	f.Add(int64(42), uint8(1), uint8(0), uint8(0), uint8(7), uint8(2), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, nb, kb, mb, wb, axisb, critb, thetab uint8) {
		n := 1 + int(nb)%64
		k := 1 + int(kb)%n
		samples := 1 + int(mb)%16
		workers := 1 + int(wb)%8
		axis := allAxes[int(axisb)%len(allAxes)]
		crit := Criterion(int(critb) % 3)
		theta := float64(thetab) / 32
		rng := rand.New(rand.NewSource(seed))
		central := perm.Random(n, rng)
		scores := make(quality.Scores, n)
		for i := range scores {
			scores[i] = rng.Float64()
		}
		var e Engine
		p, err := e.Plan(axis, central, theta, k)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Release()
		want, wantScore, err := e.Best(context.Background(), p, scores, crit, samples, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		for w := 2; w <= workers; w++ {
			got, score, err := e.Best(context.Background(), p, scores, crit, samples, w, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) || score != wantScore {
				t.Fatalf("%s n=%d k=%d m=%d θ=%g criterion %d: %d workers gave %v (score %v), one worker %v (score %v)", axis, n, k, samples, theta, crit, w, got, score, want, wantScore)
			}
		}
	})
}
