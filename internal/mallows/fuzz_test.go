package mallows

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// FuzzSampleDisplacement drives the truncated-geometric CDF inversion
// through adversarial (j, θ, seed) triples — the extreme-θ regimes where
// the float plumbing can betray it: θ → 0⁺ (at θ ≤ 2^−54 q = e^{−θ}
// rounds to 1 and the inversion would divide 0 by 0), θ huge (q and
// every power underflow to 0), and ordinary values in between. It pins
// three properties: the draw always lands in the legal support
// {0,…,j−1}; wherever q rounds to 1 it is the uniform limit, the same
// Intn(j) draw as θ = 0; and the table-backed Displacement reproduces
// the table-free arithmetic bit for bit on the same uniform.
func FuzzSampleDisplacement(f *testing.F) {
	f.Add(2, 1.0, int64(1))
	f.Add(1, 0.5, int64(2))
	f.Add(100, 0.0, int64(3))
	f.Add(50, 1e-300, int64(4))  // q rounds to exactly 1
	f.Add(50, 5e-17, int64(5))   // 1 − q^j on the edge of underflow
	f.Add(37, 745.0, int64(6))   // q underflows to exactly 0
	f.Add(64, 7000.0, int64(7))  // far past underflow
	f.Add(1000, 1e-12, int64(8)) // near-uniform, large j
	f.Add(3, math.Inf(1), int64(9))
	f.Fuzz(func(t *testing.T, j int, theta float64, seed int64) {
		if j < 0 || j > 1<<14 {
			t.Skip("support size out of fuzz range")
		}
		if math.IsNaN(theta) || theta < 0 {
			t.Skip("invalid dispersion by contract")
		}
		v := sampleDisplacement(j, theta, rand.New(rand.NewSource(seed)))
		if j <= 1 {
			if v != 0 {
				t.Fatalf("j=%d θ=%g: displacement %d, want 0", j, theta, v)
			}
			return
		}
		if v < 0 || v > j-1 {
			t.Fatalf("j=%d θ=%g: displacement %d outside [0, %d]", j, theta, v, j-1)
		}
		if math.Exp(-theta) == 1 {
			if want := rand.New(rand.NewSource(seed)).Intn(j); v != want {
				t.Fatalf("j=%d θ=%g: displacement %d, want the uniform limit's %d", j, theta, v, want)
			}
		}
		tb, err := NewTables(j, theta)
		if err != nil {
			t.Fatalf("NewTables(%d, %g): %v", j, theta, err)
		}
		if tv := tb.Displacement(j, rand.New(rand.NewSource(seed))); tv != v {
			t.Fatalf("j=%d θ=%g: table draw %d, table-free draw %d", j, theta, tv, v)
		}
	})
}

// FuzzSampleTopKPrefix fuzzes the truncated sampler against the
// table-free Model.Sample: any (n, k, θ, seed) must yield a
// bit-identical delivered prefix and leave the RNG stream in the same
// position.
func FuzzSampleTopKPrefix(f *testing.F) {
	f.Add(10, 3, 1.0, int64(1))
	f.Add(1, 1, 0.0, int64(2))
	f.Add(64, 64, 0.01, int64(3))
	f.Add(64, 80, 700.0, int64(4))
	f.Add(200, 1, 1e-300, int64(5))
	f.Add(33, 0, 2.5, int64(6))
	f.Fuzz(func(t *testing.T, n, k int, theta float64, seed int64) {
		if n < 0 || n > 512 || k < 0 || k > 1024 {
			t.Skip("size out of fuzz range")
		}
		if math.IsNaN(theta) || math.IsInf(theta, 0) || theta < 0 {
			t.Skip("invalid dispersion by contract")
		}
		m, err := New(perm.Random(n, rand.New(rand.NewSource(seed))), theta)
		if err != nil {
			t.Skip("invalid model by contract")
		}
		tb := m.Tables()
		rngFull := rand.New(rand.NewSource(seed))
		rngTopK := rand.New(rand.NewSource(seed))
		full := m.Sample(rngFull)
		got := m.SampleTopKInto(tb, k, make(perm.Perm, 0, min(k, n)), rngTopK)
		want := min(k, n)
		if len(got) != want {
			t.Fatalf("n=%d k=%d θ=%g: prefix length %d, want %d", n, k, theta, len(got), want)
		}
		for i := range got {
			if got[i] != full[i] {
				t.Fatalf("n=%d k=%d θ=%g seed=%d: prefix[%d] = %d, full %d", n, k, theta, seed, i, got[i], full[i])
			}
		}
		if a, b := rngFull.Int63(), rngTopK.Int63(); a != b {
			t.Fatalf("n=%d k=%d θ=%g: RNG streams diverged (%d vs %d)", n, k, theta, a, b)
		}
	})
}

// FuzzGeneralizedTopKPrefix fuzzes the per-step-θ truncated sampler
// against the table-free GeneralizedModel.Sample: any (n, k, θ₀, decay,
// seed) — interpreted as the geometric schedule θ_j = θ₀·decay^j — must
// yield a bit-identical delivered prefix and leave the RNG stream in the
// same position, with precomputed and inline thresholds alike.
func FuzzGeneralizedTopKPrefix(f *testing.F) {
	f.Add(10, 3, 1.0, 0.97, int64(1))
	f.Add(1, 1, 0.0, 0.5, int64(2))
	f.Add(64, 64, 0.01, 1.0, int64(3))
	f.Add(64, 80, 700.0, 0.97, int64(4))
	f.Add(200, 1, 1e-300, 0.99, int64(5))
	f.Add(33, 0, 2.5, 0.0, int64(6))
	f.Add(160, 10, 1e-15, 0.97, int64(7)) // e^{−θ_j} rounds to 1 from step 96
	f.Fuzz(func(t *testing.T, n, k int, theta, decay float64, seed int64) {
		if n < 0 || n > 512 || k < 0 || k > 1024 {
			t.Skip("size out of fuzz range")
		}
		if math.IsNaN(theta) || math.IsInf(theta, 0) || theta < 0 {
			t.Skip("invalid dispersion by contract")
		}
		if math.IsNaN(decay) || decay < 0 || decay > 1 {
			t.Skip("decay outside [0, 1]")
		}
		thetas := make([]float64, n)
		for j := range thetas {
			thetas[j] = theta * math.Pow(decay, float64(j))
		}
		center := perm.Random(n, rand.New(rand.NewSource(seed)))
		m, err := NewGeneralized(center, thetas)
		if err != nil {
			t.Skip("invalid model by contract")
		}
		tb := m.Tables()
		thresh := tb.MissThresholds(k, nil)
		full := m.Sample(rand.New(rand.NewSource(seed)))
		want := min(k, n)
		for _, th := range [][]float64{thresh, nil} {
			rngFull := rand.New(rand.NewSource(seed))
			rngTopK := rand.New(rand.NewSource(seed))
			m.Sample(rngFull)
			got := tb.SampleTopKInto(center, k, th, make(perm.Perm, 0, min(k, n)), rngTopK)
			if len(got) != want {
				t.Fatalf("n=%d k=%d θ=%g decay=%g: prefix length %d, want %d", n, k, theta, decay, len(got), want)
			}
			for i := range got {
				if got[i] != full[i] {
					t.Fatalf("n=%d k=%d θ=%g decay=%g seed=%d: prefix[%d] = %d, full %d", n, k, theta, decay, seed, i, got[i], full[i])
				}
			}
			if a, b := rngFull.Int63(), rngTopK.Int63(); a != b {
				t.Fatalf("n=%d k=%d θ=%g decay=%g: RNG streams diverged (%d vs %d)", n, k, theta, decay, a, b)
			}
		}
	})
}

// FuzzDisplacementMoments checks the per-step functions behind LogZ,
// ExpectedDistance and VarianceDistance against direct sums over the
// weights: for any step j ∈ [1, 256] and finite θ ≥ 0 they must be
// finite and match within 1e-9 relative, or 1e-12 absolute where the
// value is below 1e-3 — on both sides of the series switch, where
// e^{−θ} rounds to 1, and where it underflows.
func FuzzDisplacementMoments(f *testing.F) {
	for _, theta := range []float64{0, 1e-300, 1e-20, 1e-10, 1, 700} {
		f.Add(50, theta)
	}
	f.Add(8, seriesBelow/8)                    // jθ at the switch: closed form
	f.Add(8, math.Nextafter(seriesBelow/8, 0)) // just below: series
	f.Fuzz(func(t *testing.T, j int, theta float64) {
		if j < 1 || j > 256 {
			t.Skip("step out of fuzz range")
		}
		if math.IsNaN(theta) || math.IsInf(theta, 0) || theta < 0 {
			t.Skip("invalid dispersion by contract")
		}
		logZ, mean, variance := directMoments(j, theta)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"logZStep", logZStep(j, theta), logZ},
			{"expectedDisplacement", expectedDisplacement(j, theta), mean},
			{"varianceDisplacement", varianceDisplacement(j, theta), variance},
		} {
			diff := math.Abs(c.got - c.want)
			if math.IsNaN(c.got) || math.IsInf(c.got, 0) ||
				diff > 1e-9*math.Abs(c.want) && !(math.Abs(c.want) < 1e-3 && diff <= 1e-12) {
				t.Fatalf("%s(j=%d, θ=%g) = %v, direct sum %v", c.name, j, theta, c.got, c.want)
			}
		}
	})
}
