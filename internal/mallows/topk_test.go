package mallows

import (
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// TestSampleTopKPrefixBitIdentity pins the tentpole contract at the
// sampler level: for equal seeds, SampleTopKInto's delivered prefix is
// bit-identical to the first min(k, n) entries of the full insertion
// path, across sizes, dispersions (including the θ = 0 uniform limit),
// and window widths including k = 0, 1, n, and k > n.
func TestSampleTopKPrefixBitIdentity(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 7, 25, 64, 200}
	thetas := []float64{0, 1e-9, 0.05, 0.5, 1, 3, 25, 700}
	for _, n := range sizes {
		ks := []int{0, 1, 2, n / 2, n - 1, n, n + 1, n + 7}
		for _, theta := range thetas {
			rng := rand.New(rand.NewSource(int64(n)*1000 + int64(theta*10)))
			m, err := New(perm.Random(n, rng), theta)
			if err != nil {
				t.Fatal(err)
			}
			tb := m.Tables()
			for _, k := range ks {
				if k < 0 {
					continue
				}
				for seed := int64(0); seed < 5; seed++ {
					full := m.Sample(rand.New(rand.NewSource(seed)))
					want := k
					if want > n {
						want = n
					}
					got := m.SampleTopKInto(tb, k, make(perm.Perm, 0, want), rand.New(rand.NewSource(seed)))
					if len(got) != want {
						t.Fatalf("n=%d θ=%g k=%d seed=%d: prefix length %d, want %d", n, theta, k, seed, len(got), want)
					}
					for i := range got {
						if got[i] != full[i] {
							t.Fatalf("n=%d θ=%g k=%d seed=%d: prefix[%d] = %d, full[%d] = %d\nprefix %v\nfull   %v",
								n, theta, k, seed, i, got[i], i, full[i], got, full[:want])
						}
					}
				}
			}
		}
	}
}

// TestSampleTopKStreamIdentity checks that the truncated path consumes
// the RNG stream exactly like the full path — a draw must leave the
// generator in the same state either way, or sequential best-of-m draws
// sharing one stream would diverge between paths after the first draw.
func TestSampleTopKStreamIdentity(t *testing.T) {
	for _, theta := range []float64{0, 0.3, 2, 100} {
		for _, n := range []int{0, 1, 5, 40} {
			for _, k := range []int{0, 1, 3, n, n + 2} {
				m, err := New(perm.Identity(n), theta)
				if err != nil {
					t.Fatal(err)
				}
				tb := m.Tables()
				rngFull := rand.New(rand.NewSource(42))
				rngTopK := rand.New(rand.NewSource(42))
				m.Sample(rngFull)
				m.SampleTopKInto(tb, k, make(perm.Perm, 0, n), rngTopK)
				if a, b := rngFull.Int63(), rngTopK.Int63(); a != b {
					t.Fatalf("n=%d θ=%g k=%d: stream diverged after one draw (next full %d, next topk %d)", n, theta, k, a, b)
				}
			}
		}
	}
}

// TestSampleTopKSequentialDraws pins the property the engine's
// best-of-m loop relies on: draws interleaved on one shared stream
// match the full path draw for draw, not just on the first draw.
func TestSampleTopKSequentialDraws(t *testing.T) {
	const n, k, draws = 60, 8, 12
	for _, theta := range []float64{0, 0.7, 4} {
		m, err := New(perm.Identity(n), theta)
		if err != nil {
			t.Fatal(err)
		}
		tb := m.Tables()
		rngFull := rand.New(rand.NewSource(7))
		rngTopK := rand.New(rand.NewSource(7))
		topk := make(perm.Perm, 0, k)
		for d := 0; d < draws; d++ {
			full := m.Sample(rngFull)
			topk = m.SampleTopKInto(tb, k, topk, rngTopK)
			for i := range topk {
				if topk[i] != full[i] {
					t.Fatalf("θ=%g draw %d pos %d: topk %d, full %d", theta, d, i, topk[i], full[i])
				}
			}
		}
	}
}

// TestSampleTopKValid checks the delivered prefix is always a valid
// k-prefix: distinct items, all drawn from the center.
func TestSampleTopKValid(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for _, theta := range []float64{0, 0.2, 5} {
		m, err := New(perm.Random(50, rng), theta)
		if err != nil {
			t.Fatal(err)
		}
		tb := m.Tables()
		member := make(map[int]bool, 50)
		for _, it := range m.Center {
			member[it] = true
		}
		out := make(perm.Perm, 0, 50)
		for i := 0; i < 50; i++ {
			k := rng.Intn(52)
			out = m.SampleTopKInto(tb, k, out, rng)
			seen := make(map[int]bool, len(out))
			for _, it := range out {
				if !member[it] {
					t.Fatalf("θ=%g k=%d: item %d not in center", theta, k, it)
				}
				if seen[it] {
					t.Fatalf("θ=%g k=%d: duplicate item %d in prefix %v", theta, k, it, out)
				}
				seen[it] = true
			}
		}
	}
}

// TestSampleTopKZeroAlloc pins the allocation-free contract: with
// tables built and capacity provided, a truncated draw performs no heap
// allocation.
func TestSampleTopKZeroAlloc(t *testing.T) {
	const n, k = 4096, 16
	m, err := New(perm.Identity(n), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	tb := m.Tables()
	out := make(perm.Perm, 0, k)
	rng := rand.New(rand.NewSource(3))
	if avg := testing.AllocsPerRun(200, func() {
		out = m.SampleTopKInto(tb, k, out, rng)
	}); avg != 0 {
		t.Fatalf("SampleTopKInto allocates %.1f objects per draw, want 0", avg)
	}
}

// TestSampleTopKTableMismatchPanics mirrors SampleInto's contract.
func TestSampleTopKTableMismatchPanics(t *testing.T) {
	m, err := New(perm.Identity(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewTables(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("undersized tables did not panic")
		}
	}()
	m.SampleTopKInto(small, 3, make(perm.Perm, 0, 3), rand.New(rand.NewSource(1)))
}
