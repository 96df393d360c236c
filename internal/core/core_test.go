package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/perm"
	"repro/internal/quality"
	"repro/internal/rankdist"
)

func TestPostProcessValidation(t *testing.T) {
	cases := []struct {
		name    string
		central perm.Perm
		cfg     Config
	}{
		{"negative theta", perm.Identity(5), Config{Noise: NoiseMallows, Theta: -1, Samples: 1}},
		{"NaN theta", perm.Identity(5), Config{Noise: NoiseMallows, Theta: math.NaN(), Samples: 1}},
		{"infinite theta", perm.Identity(5), Config{Noise: NoiseMallows, Theta: math.Inf(1), Samples: 1}},
		{"zero samples", perm.Identity(5), Config{Noise: NoiseMallows, Theta: 1, Samples: 0}},
		{"invalid central", perm.Perm{0, 0}, Config{Noise: NoiseMallows, Theta: 1, Samples: 1}},
		{"unknown noise", perm.Identity(5), Config{Noise: "cauchy", Theta: 1, Samples: 1}},
		{"unknown criterion", perm.Identity(5), Config{Noise: NoiseMallows, Theta: 1, Samples: 2, Criterion: 99}},
	}
	for _, c := range cases {
		if _, err := PostProcess(c.central, nil, c.cfg, 1); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestPostProcessReturnsValidPerm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	scores := make(quality.Scores, 20)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	for _, noise := range allAxes {
		for _, theta := range []float64{0, 0.5, 3} {
			for _, crit := range []Criterion{SelectFirst, SelectNDCG, SelectKT} {
				p, err := PostProcess(perm.Random(20, rng), scores, Config{Noise: noise, Theta: theta, Samples: 3, Criterion: crit}, rng.Int63())
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Validate(); err != nil || len(p) != 20 {
					t.Fatalf("%s θ=%g criterion %d: %v (length %d)", noise, theta, crit, err, len(p))
				}
			}
		}
	}
}

func TestPostProcessHighThetaStaysClose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	central := perm.Random(15, rng)
	p, err := PostProcess(central, nil, Config{Noise: NoiseMallows, Theta: 20, Samples: 1}, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	d, err := rankdist.KendallTau(p, central)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("θ=20 sample at distance %d from central", d)
	}
}

func TestPostProcessBestOfImprovesCriterion(t *testing.T) {
	// With the KT criterion, best-of-m is stochastically closer to the
	// central ranking than a single draw. Compare means over trials.
	central := perm.Identity(12)
	var one, best float64
	const trials = 300
	for i := 0; i < trials; i++ {
		p1, err := PostProcess(central, nil, Config{Noise: NoiseMallows, Theta: 0.3, Samples: 1, Criterion: SelectKT}, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		d1, _ := rankdist.KendallTau(p1, central)
		one += float64(d1)
		p15, err := PostProcess(central, nil, Config{Noise: NoiseMallows, Theta: 0.3, Samples: 15, Criterion: SelectKT}, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		d15, _ := rankdist.KendallTau(p15, central)
		best += float64(d15)
	}
	if best >= one {
		t.Fatalf("best-of-15 mean distance %v not better than single-draw %v", best/trials, one/trials)
	}
}

func TestPostProcessZeroThetaIsUniform(t *testing.T) {
	// θ=0 must not privilege the central ranking: over many draws the
	// mean distance should match the uniform expectation n(n−1)/4.
	central := perm.Identity(8)
	var total float64
	const trials = 4000
	for i := 0; i < trials; i++ {
		p, err := PostProcess(central, nil, Config{Noise: NoiseMallows, Theta: 0, Samples: 1}, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		d, _ := rankdist.KendallTau(p, central)
		total += float64(d)
	}
	mean := total / trials
	want := 8.0 * 7.0 / 4.0
	if math.Abs(mean-want) > 0.5 {
		t.Fatalf("θ=0 mean distance %v, want ≈ %v", mean, want)
	}
}

// The size-state cache holds at most maxSizeStates (n, θ) keys: past the
// cap each new key evicts an old one instead of growing the cache.
func TestEngineSizeCacheCap(t *testing.T) {
	var e Engine
	for n := 2; n < 2+maxSizeStates+10; n++ {
		p, err := e.Plan(NoiseMallows, perm.Identity(n), 1, n)
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
		if got, want := int(e.numStates.Load()), min(n-1, maxSizeStates); got != want {
			t.Fatalf("after %d sizes the cache holds %d states, want %d", n-1, got, want)
		}
	}
}

// Pool counters never decrease, even while concurrent requests evict
// the size-states they count. The requests differ in n and noise axis,
// so pooled workers grown for one request serve smaller ones on other
// goroutines; every draw must still be the one a fresh engine
// (PostProcess) makes on the same seed.
func TestEngineStatsMonotonicUnderEviction(t *testing.T) {
	var e Engine
	const workers, requests = 4, 100
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			center := perm.Identity(8 + 8*g)
			for i := 0; i < requests; i++ {
				cfg := Config{Noise: allAxes[i%len(allAxes)], Theta: float64(g*requests+i) / 100, Samples: 2, Criterion: SelectKT}
				p, err := e.Plan(cfg.Noise, center, cfg.Theta, len(center))
				if err != nil {
					t.Error(err)
					return
				}
				got, _, err := e.Best(context.Background(), p, nil, SelectKT, cfg.Samples, 1, int64(i))
				p.Release()
				if err != nil {
					t.Error(err)
					return
				}
				want, err := PostProcess(center, nil, cfg, int64(i))
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(want) {
					t.Errorf("n=%d %s θ=%g: pooled draw %v, fresh engine %v", len(center), cfg.Noise, cfg.Theta, got, want)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var prev Stats
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s := e.Stats()
		if s.PoolGets < prev.PoolGets || s.PoolMisses < prev.PoolMisses {
			t.Fatalf("pool counters went from %d/%d to %d/%d", prev.PoolGets, prev.PoolMisses, s.PoolGets, s.PoolMisses)
		}
		prev = s
	}
	if max := int64(2 * workers * requests); prev.PoolGets > max {
		t.Fatalf("pool gets = %d, more than the %d checkouts made", prev.PoolGets, max)
	}
}

// TestEnginePoolCountsEveryCheckout pins the pool counters on a fresh
// Engine: one get per draw loop (its buffers and sampler scratch) and
// one per request whose plan needs a float vector — Plackett–Luce
// log-weights on every plan, miss thresholds on truncated Mallows
// plans. On a fresh engine every sequential get allocates, so each is a
// miss; parallel workers may recycle one another's. A worker recycled
// from a Mallows request and checked out for Plackett–Luce draws has to
// build its scratch, which counts as a miss too.
func TestEnginePoolCountsEveryCheckout(t *testing.T) {
	const n, samples = 50, 4
	run := func(e *Engine, axis Noise, n int, theta float64, k, workers int) {
		t.Helper()
		p, err := e.Plan(axis, perm.Identity(n), theta, k)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Release()
		if _, _, err = e.Best(context.Background(), p, nil, SelectKT, samples, workers, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, axis := range []Noise{NoiseMallows, NoiseGMallows, NoisePlackettLuce} {
		for _, k := range []int{n, 10} {
			for _, workers := range []int{1, 2} {
				var e Engine
				run(&e, axis, n, 1, k, workers)
				vectors := int64(0)
				if axis == NoisePlackettLuce || k < n {
					vectors = 1
				}
				s := e.Stats()
				if want := int64(workers) + vectors; s.PoolGets != want {
					t.Errorf("%s, top %d, %d workers: pool gets = %d, want %d", axis, k, workers, s.PoolGets, want)
				}
				if (workers == 1 && s.PoolMisses != s.PoolGets) || s.PoolMisses < 1+vectors || s.PoolMisses > s.PoolGets {
					t.Errorf("%s, top %d, %d workers: pool misses = %d of %d gets on a fresh engine", axis, k, workers, s.PoolMisses, s.PoolGets)
				}
			}
		}
	}
	// Sequences of sequential requests on one engine. Its pools serve
	// every (n, θ): a request that differs only in θ recycles the
	// worker, a larger n builds a larger worker (and vector) and counts
	// a miss, and a smaller n recycles the larger one. Recycling is best
	// effort — the runtime may drop pooled values at a GC, and the race
	// detector drops a quarter of them on purpose — so each sequence
	// runs on up to 20 fresh engines and must read its misses on one of
	// them; its gets must match on every attempt.
	type request struct {
		axis  Noise
		n, k  int
		theta float64
	}
	for _, c := range []struct {
		name         string
		reqs         []request
		gets, misses int64
	}{
		{"mallows then plackett-luce", []request{{NoiseMallows, n, n, 1}, {NoisePlackettLuce, n, n, 1}}, 3, 3},
		{"θ = 1 then 0.1", []request{{NoiseMallows, n, n, 1}, {NoiseMallows, n, n, 0.1}}, 2, 1},
		{"n = 50, 100, 50", []request{{NoiseMallows, n, n, 1}, {NoiseMallows, 100, 100, 1}, {NoiseMallows, n, n, 1}}, 3, 2},
		{"top 10 at n = 50, 100, 50", []request{{NoiseMallows, n, 10, 1}, {NoiseMallows, 100, 10, 1}, {NoiseMallows, n, 10, 1}}, 6, 4},
	} {
		for attempt := 1; ; attempt++ {
			var e Engine
			for _, r := range c.reqs {
				run(&e, r.axis, r.n, r.theta, r.k, 1)
			}
			s := e.Stats()
			if s.PoolGets != c.gets {
				t.Fatalf("%s: pool gets = %d, want %d", c.name, s.PoolGets, c.gets)
			}
			if s.PoolMisses == c.misses {
				break
			}
			if attempt == 20 {
				t.Errorf("%s: pool gets/misses = %d/%d, want %d/%d", c.name, s.PoolGets, s.PoolMisses, c.gets, c.misses)
				break
			}
		}
	}
}
