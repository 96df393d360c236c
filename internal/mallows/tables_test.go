package mallows

import (
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// The serving layer's correctness rests on table-backed draws consuming
// the RNG stream exactly like the table-free samplers: equal seeds must
// yield identical permutations and leave the streams in one position.
// θ = 1e-20, where e^{−θ} rounds to 1, draws through the uniform branch.
func TestSampleIntoMatchesSample(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 40, 200} {
		for _, theta := range []float64{0, 1e-20, 0.05, 0.5, 1, 3} {
			m, err := New(perm.Random(n, rand.New(rand.NewSource(int64(n)))), theta)
			if err != nil {
				t.Fatal(err)
			}
			tab := m.Tables()
			scratch := make(perm.Perm, 0, n)
			a := rand.New(rand.NewSource(9))
			b := rand.New(rand.NewSource(9))
			for rep := 0; rep < 20; rep++ {
				want := m.Sample(a)
				got := m.SampleInto(tab, scratch, b)
				if !got.Equal(want) {
					t.Fatalf("n=%d θ=%g rep %d: SampleInto %v, Sample %v", n, theta, rep, got, want)
				}
			}
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("n=%d θ=%g: RNG streams diverged (%d vs %d)", n, theta, x, y)
			}
		}
	}
}

func TestFastSamplerMatchesSampleFast(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 40, 200} {
		for _, theta := range []float64{0, 0.5, 2} {
			m, err := New(perm.Random(n, rand.New(rand.NewSource(int64(n)+100))), theta)
			if err != nil {
				t.Fatal(err)
			}
			s := m.NewFastSampler(nil)
			scratch := make(perm.Perm, n)
			a := rand.New(rand.NewSource(4))
			b := rand.New(rand.NewSource(4))
			for rep := 0; rep < 20; rep++ {
				want := m.SampleFast(a)
				got := s.SampleInto(scratch, b)
				if !got.Equal(want) {
					t.Fatalf("n=%d θ=%g rep %d: FastSampler %v, SampleFast %v", n, theta, rep, got, want)
				}
			}
		}
	}
}

func TestTablesValidation(t *testing.T) {
	if _, err := NewTables(-1, 1); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := NewTables(10, -0.5); err == nil {
		t.Error("negative θ accepted")
	}
}

func TestSampleIntoMismatchPanics(t *testing.T) {
	m, err := New(perm.Identity(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTables(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("dispersion mismatch did not panic")
		}
	}()
	m.SampleInto(tab, nil, rand.New(rand.NewSource(1)))
}

// SampleInto must not allocate once scratch capacity and tables exist.
func TestSampleIntoAllocFree(t *testing.T) {
	m, err := New(perm.Identity(300), 1)
	if err != nil {
		t.Fatal(err)
	}
	tab := m.Tables()
	scratch := make(perm.Perm, 0, 300)
	rng := rand.New(rand.NewSource(3))
	allocs := testing.AllocsPerRun(50, func() {
		scratch = m.SampleInto(tab, scratch, rng)
	})
	if allocs > 0 {
		t.Errorf("SampleInto allocates %.1f objects per draw, want 0", allocs)
	}
}
