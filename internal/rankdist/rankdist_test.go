package rankdist

import (
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// bruteKendall counts discordant pairs directly from the position maps.
func bruteKendall(p, q perm.Perm) int64 {
	pp, qp := p.Positions(), q.Positions()
	var n int64
	d := len(p)
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if (pp[i]-pp[j])*(qp[i]-qp[j]) < 0 {
				n++
			}
		}
	}
	return n
}

func TestKendallTauKnownValues(t *testing.T) {
	id := perm.Identity(4)
	rev := id.Reverse()
	cases := []struct {
		p, q perm.Perm
		want int64
	}{
		{id, id, 0},
		{id, rev, 6},
		{perm.MustNew(1, 0, 2, 3), id, 1},
		{perm.MustNew(0, 2, 1, 3), perm.MustNew(0, 1, 2, 3), 1},
		{perm.MustNew(2, 0, 1), perm.MustNew(0, 1, 2), 2},
	}
	for _, c := range cases {
		got, err := KendallTau(c.p, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("KendallTau(%v,%v) = %d, want %d", c.p, c.q, got, c.want)
		}
	}
}

func TestKendallTauAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		d := rng.Intn(40)
		p, q := perm.Random(d, rng), perm.Random(d, rng)
		got, err := KendallTau(p, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteKendall(p, q); got != want {
			t.Fatalf("KendallTau(%v,%v) = %d, want %d", p, q, got, want)
		}
	}
}

func TestMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type metric struct {
		name string
		f    func(p, q perm.Perm) (int64, error)
	}
	metrics := []metric{
		{"KendallTau", KendallTau},
		{"Footrule", Footrule},
	}
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(16)
		p, q, r := perm.Random(d, rng), perm.Random(d, rng), perm.Random(d, rng)
		for _, m := range metrics {
			dpq, err := m.f(p, q)
			if err != nil {
				t.Fatal(err)
			}
			dqp, _ := m.f(q, p)
			if dpq != dqp {
				t.Fatalf("%s not symmetric: d(p,q)=%d d(q,p)=%d", m.name, dpq, dqp)
			}
			if self, _ := m.f(p, p); self != 0 {
				t.Fatalf("%s: d(p,p) = %d", m.name, self)
			}
			if dpq < 0 {
				t.Fatalf("%s negative: %d", m.name, dpq)
			}
			dpr, _ := m.f(p, r)
			drq, _ := m.f(r, q)
			if dpq > dpr+drq {
				t.Fatalf("%s triangle violated: d(p,q)=%d > d(p,r)+d(r,q)=%d (p=%v q=%v r=%v)",
					m.name, dpq, dpr+drq, p, q, r)
			}
		}
	}
}

func TestKendallRightInvariance(t *testing.T) {
	// d(p∘t, q∘t) = d(p, q) for relabelings t: Kendall tau is
	// right-invariant. In the one-line "item list" representation,
	// relabeling items of both rankings by the same bijection preserves
	// the distance.
	rng := rand.New(rand.NewSource(12))
	relabel := func(p perm.Perm, m perm.Perm) perm.Perm {
		out := make(perm.Perm, len(p))
		for r, item := range p {
			out[r] = m[item]
		}
		return out
	}
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(16)
		p, q, m := perm.Random(d, rng), perm.Random(d, rng), perm.Random(d, rng)
		a, err := KendallTau(p, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := KendallTau(relabel(p, m), relabel(q, m))
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("not right-invariant: %d vs %d", a, b)
		}
	}
}

func TestFootruleKnown(t *testing.T) {
	// id vs reverse of size 4: displacements 3,1,1,3 → 8.
	got, err := Footrule(perm.Identity(4), perm.Identity(4).Reverse())
	if err != nil || got != 8 {
		t.Fatalf("Footrule(id, rev) = %d, %v", got, err)
	}
}

func TestFootruleKendallSandwich(t *testing.T) {
	// Diaconis–Graham: KT ≤ Footrule ≤ 2·KT.
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		d := rng.Intn(32)
		p, q := perm.Random(d, rng), perm.Random(d, rng)
		kt, err := KendallTau(p, q)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := Footrule(p, q)
		if err != nil {
			t.Fatal(err)
		}
		if fr < kt || fr > 2*kt {
			t.Fatalf("Diaconis–Graham violated: KT=%d footrule=%d (p=%v q=%v)", kt, fr, p, q)
		}
	}
}

func TestSizeMismatchErrors(t *testing.T) {
	p, q := perm.Identity(3), perm.Identity(4)
	if _, err := KendallTau(p, q); err == nil {
		t.Error("KendallTau accepted mismatched sizes")
	}
	if _, err := Footrule(p, q); err == nil {
		t.Error("Footrule accepted mismatched sizes")
	}
}
