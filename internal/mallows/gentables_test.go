package mallows

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// genThetaSchedules returns per-step dispersion schedules covering the
// regimes the tables must reproduce bit for bit: constant θ (the plain
// model as a degenerate schedule), the geometric decay the engine's
// gmallows axis uses, mixed scales, schedules with exact zeros (uniform
// steps that draw through Intn), and extremes near under/overflow.
func genThetaSchedules(n int, rng *rand.Rand) [][]float64 {
	mk := func(f func(j int) float64) []float64 {
		th := make([]float64, n)
		for j := range th {
			th[j] = f(j)
		}
		return th
	}
	schedules := [][]float64{
		mk(func(int) float64 { return 0 }),
		mk(func(int) float64 { return 0.5 }),
		mk(func(j int) float64 { return 1.0 * math.Pow(0.97, float64(j)) }), // engine's decay shape
		mk(func(j int) float64 { return 3.0 * math.Pow(0.5, float64(j)) }),
		mk(func(j int) float64 {
			if j%3 == 0 {
				return 0
			}
			return float64(j%7) + 0.1
		}),
		mk(func(int) float64 { return 1e-300 }),
		mk(func(int) float64 { return 745.0 }),
	}
	schedules = append(schedules, mk(func(int) float64 { return rng.ExpFloat64() }))
	return schedules
}

func TestNewGeneralizedTablesValidation(t *testing.T) {
	if _, err := NewGeneralizedTables([]float64{1, -0.1}); err == nil {
		t.Error("accepted negative dispersion")
	}
	if _, err := NewGeneralizedTables([]float64{math.NaN()}); err == nil {
		t.Error("accepted NaN dispersion")
	}
	tb, err := NewGeneralizedTables(nil)
	if err != nil || tb.N() != 0 {
		t.Errorf("empty schedule: %v, %v", tb, err)
	}
}

// Table-backed SampleInto must be bit- and stream-identical to the
// table-free GeneralizedModel.Sample across schedules, sizes, and seeds.
// The grid ends with the engine's decay schedule θ·0.97^j at θ = 1 over
// 1,500 steps, whose e^{−θ_j} rounds to 1 from step 1,230 on, so the
// draw ends in a run of uniform steps.
func TestGeneralizedSampleIntoBitIdentity(t *testing.T) {
	gridRng := rand.New(rand.NewSource(11))
	check := func(schedule string, thetas []float64) {
		t.Helper()
		n := len(thetas)
		center := perm.Random(n, gridRng)
		m, err := NewGeneralized(center, thetas)
		if err != nil {
			t.Fatalf("n=%d schedule %s: %v", n, schedule, err)
		}
		tb := m.Tables()
		for seed := int64(0); seed < 5; seed++ {
			rngA := rand.New(rand.NewSource(seed))
			rngB := rand.New(rand.NewSource(seed))
			want := m.Sample(rngA)
			got := tb.SampleInto(center, make(perm.Perm, 0, n), rngB)
			if len(got) != len(want) {
				t.Fatalf("n=%d schedule %s seed=%d: length %d, want %d", n, schedule, seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d schedule %s seed=%d: pos %d = %d, want %d", n, schedule, seed, i, got[i], want[i])
				}
			}
			if a, b := rngA.Int63(), rngB.Int63(); a != b {
				t.Fatalf("n=%d schedule %s seed=%d: RNG streams diverged (%d vs %d)", n, schedule, seed, a, b)
			}
		}
	}
	for _, n := range []int{0, 1, 2, 3, 7, 25, 64, 200} {
		for si, thetas := range genThetaSchedules(n, gridRng) {
			check(fmt.Sprint(si), thetas)
		}
	}
	decay := make([]float64, 1500)
	for j := range decay {
		decay[j] = math.Pow(0.97, float64(j))
	}
	check("θ·0.97^j", decay)
}

// The delivered top-k prefix must be bit-identical to the first k
// entries of the full draw, with the RNG left in the same position —
// with both precomputed MissThresholds and the nil (inline) fallback.
func TestGeneralizedSampleTopKPrefixBitIdentity(t *testing.T) {
	gridRng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, 3, 7, 25, 64, 200} {
		for si, thetas := range genThetaSchedules(n, gridRng) {
			center := perm.Random(n, gridRng)
			m, err := NewGeneralized(center, thetas)
			if err != nil {
				t.Fatalf("n=%d schedule=%d: %v", n, si, err)
			}
			tb := m.Tables()
			ks := []int{0, 1, 2, n / 2, n - 1, n, n + 1, n + 7}
			for _, k := range ks {
				if k < 0 {
					continue
				}
				thresh := tb.MissThresholds(k, nil)
				for seed := int64(0); seed < 5; seed++ {
					full := m.Sample(rand.New(rand.NewSource(seed)))
					want := k
					if want > n {
						want = n
					}
					for name, th := range map[string][]float64{"precomputed": thresh, "inline": nil} {
						rngTopK := rand.New(rand.NewSource(seed))
						got := tb.SampleTopKInto(center, k, th, make(perm.Perm, 0, n), rngTopK)
						if len(got) != want {
							t.Fatalf("n=%d schedule=%d k=%d seed=%d (%s): prefix length %d, want %d",
								n, si, k, seed, name, len(got), want)
						}
						for i := range got {
							if got[i] != full[i] {
								t.Fatalf("n=%d schedule=%d k=%d seed=%d (%s): prefix[%d] = %d, full draw has %d\nprefix: %v\nfull:   %v",
									n, si, k, seed, name, i, got[i], full[i], got, full[:want])
							}
						}
						rngFull := rand.New(rand.NewSource(seed))
						m.Sample(rngFull)
						if a, b := rngFull.Int63(), rngTopK.Int63(); a != b {
							t.Fatalf("n=%d schedule=%d k=%d seed=%d (%s): RNG streams diverged (%d vs %d)",
								n, si, k, seed, name, a, b)
						}
					}
				}
			}
		}
	}
}

// A sequence of truncated draws from one shared stream stays aligned
// draw for draw with the full path — the best-of-m loop's actual usage.
func TestGeneralizedSampleTopKSequentialDraws(t *testing.T) {
	const n, k, draws = 60, 8, 12
	rng := rand.New(rand.NewSource(17))
	thetas := make([]float64, n)
	for j := range thetas {
		thetas[j] = 0.8 * math.Pow(0.97, float64(j))
	}
	center := perm.Random(n, rng)
	m, err := NewGeneralized(center, thetas)
	if err != nil {
		t.Fatal(err)
	}
	tb := m.Tables()
	thresh := tb.MissThresholds(k, nil)
	rngFull := rand.New(rand.NewSource(23))
	rngTopK := rand.New(rand.NewSource(23))
	out := make(perm.Perm, 0, k)
	for d := 0; d < draws; d++ {
		full := m.Sample(rngFull)
		out = tb.SampleTopKInto(center, k, thresh, out, rngTopK)
		for i := range out {
			if out[i] != full[i] {
				t.Fatalf("draw %d: prefix[%d] = %d, full draw has %d", d, i, out[i], full[i])
			}
		}
	}
}

// MissThresholds entries must be valid CDF lower bounds: in [0, 1) and
// 0 wherever the step cannot miss (j ≤ k, j ≤ 1, or θ_j = 0).
func TestGeneralizedMissThresholds(t *testing.T) {
	const n = 50
	thetas := make([]float64, n)
	for j := range thetas {
		if j%4 == 0 {
			thetas[j] = 0
		} else {
			thetas[j] = 2.0 * math.Pow(0.9, float64(j))
		}
	}
	tb, err := NewGeneralizedTables(thetas)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{-3, 0, 1, 10, n, n + 5} {
		th := tb.MissThresholds(k, nil)
		if len(th) != n+1 {
			t.Fatalf("k=%d: threshold table length %d, want %d", k, len(th), n+1)
		}
		ck := k
		if ck > n {
			ck = n
		}
		if ck < 0 {
			ck = 0
		}
		for j := 0; j <= n; j++ {
			switch {
			case j <= ck || j <= 1 || thetas[max(j-1, 0)] == 0:
				if th[j] != 0 {
					t.Fatalf("k=%d j=%d: threshold %v, want 0", k, j, th[j])
				}
			default:
				if th[j] < 0 || th[j] >= 1 {
					t.Fatalf("k=%d j=%d: threshold %v outside [0, 1)", k, j, th[j])
				}
			}
		}
	}
	// Reuse of a pooled destination must not leak stale entries.
	dst := make([]float64, n+1)
	for i := range dst {
		dst[i] = 99
	}
	th := tb.MissThresholds(n+5, dst)
	for j, v := range th {
		if v != 0 {
			t.Fatalf("k=n+5 j=%d: threshold %v, want 0 (no step can miss)", j, v)
		}
	}
}

// The tables are positional: a center of any other size must panic
// rather than silently borrow a mismatched schedule.
func TestGeneralizedTablesCenterMismatchPanics(t *testing.T) {
	tb, err := NewGeneralizedTables([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range map[string]func(){
		"SampleInto": func() {
			tb.SampleInto(perm.Identity(2), nil, rand.New(rand.NewSource(1)))
		},
		"SampleTopKInto": func() {
			tb.SampleTopKInto(perm.Identity(4), 2, nil, nil, rand.New(rand.NewSource(1)))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("mismatched center did not panic")
				}
			}()
			fn()
		}()
	}
}

// With precomputed thresholds and enough capacity, neither the full nor
// the truncated table-backed draw allocates.
func TestGeneralizedSampleZeroAlloc(t *testing.T) {
	const n, k = 4096, 16
	rng := rand.New(rand.NewSource(29))
	thetas := make([]float64, n)
	for j := range thetas {
		thetas[j] = 0.5 * math.Pow(0.999, float64(j))
	}
	center := perm.Random(n, rng)
	tb, err := NewGeneralizedTables(thetas)
	if err != nil {
		t.Fatal(err)
	}
	thresh := tb.MissThresholds(k, nil)
	out := make(perm.Perm, 0, n)
	if allocs := testing.AllocsPerRun(200, func() {
		out = tb.SampleTopKInto(center, k, thresh, out, rng)
	}); allocs != 0 {
		t.Fatalf("SampleTopKInto allocates %.1f times per draw, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		out = tb.SampleInto(center, out, rng)
	}); allocs != 0 {
		t.Fatalf("SampleInto allocates %.1f times per draw, want 0", allocs)
	}
}

// A schedule whose tail underflows — e^{−θ_j} rounds to 1 on the
// engine's θ·0.97^j shape from step 1,230 at θ = 1 — must draw exactly
// like the same schedule with 0 at those steps: uniform displacements,
// full and top-k, through the model and the tables, leaving the RNG
// stream in the same place.
func TestGeneralizedUnderflowingTailDrawsUniform(t *testing.T) {
	const n, k = 1300, 10
	thetas := geometric(n, 1, 0.97)
	zeroed := append([]float64(nil), thetas...)
	uniform := 0
	for j, th := range zeroed {
		if th > 0 && math.Exp(-th) == 1 {
			zeroed[j] = 0
			uniform++
		}
	}
	if uniform == 0 {
		t.Fatal("no step of the schedule underflows")
	}
	center := perm.Random(n, rand.New(rand.NewSource(30)))
	under, err := NewGeneralized(center, thetas)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := NewGeneralized(center, zeroed)
	if err != nil {
		t.Fatal(err)
	}
	draws := map[string]func(m *GeneralizedModel, tb *GeneralizedTables, rng *rand.Rand) perm.Perm{
		"Sample": func(m *GeneralizedModel, _ *GeneralizedTables, rng *rand.Rand) perm.Perm { return m.Sample(rng) },
		"SampleInto": func(_ *GeneralizedModel, tb *GeneralizedTables, rng *rand.Rand) perm.Perm {
			return tb.SampleInto(center, nil, rng)
		},
		"SampleTopKInto": func(_ *GeneralizedModel, tb *GeneralizedTables, rng *rand.Rand) perm.Perm {
			return tb.SampleTopKInto(center, k, tb.MissThresholds(k, nil), nil, rng)
		},
		"SampleTopKInto/inline": func(_ *GeneralizedModel, tb *GeneralizedTables, rng *rand.Rand) perm.Perm {
			return tb.SampleTopKInto(center, k, nil, nil, rng)
		},
	}
	underTab, zeroTab := under.Tables(), zero.Tables()
	for name, draw := range draws {
		for seed := int64(0); seed < 5; seed++ {
			rngU, rngZ := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, want := draw(under, underTab, rngU), draw(zero, zeroTab, rngZ)
			if !got.Equal(want) {
				t.Fatalf("%s seed=%d: underflowing tail drew %v…, zero tail %v…", name, seed, got[:k], want[:k])
			}
			if a, b := rngU.Int63(), rngZ.Int63(); a != b {
				t.Fatalf("%s seed=%d: RNG streams diverged (%d vs %d)", name, seed, a, b)
			}
		}
	}
}
