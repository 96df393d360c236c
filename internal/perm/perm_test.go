package perm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	for _, d := range []int{0, 1, 2, 5, 10} {
		p := Identity(d)
		if p.Len() != d {
			t.Fatalf("Identity(%d).Len() = %d", d, p.Len())
		}
		for i, v := range p {
			if v != i {
				t.Fatalf("Identity(%d)[%d] = %d", d, i, v)
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Identity(%d) invalid: %v", d, err)
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	cases := [][]int{
		{0, 0},
		{1, 2},
		{-1, 0},
		{0, 2},
		{3, 1, 0},
	}
	for _, c := range cases {
		if _, err := New(c); err == nil {
			t.Errorf("New(%v) accepted invalid permutation", c)
		}
	}
	if _, err := New([]int{2, 0, 1}); err != nil {
		t.Errorf("New rejected valid permutation: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid input")
		}
	}()
	MustNew(0, 0)
}

func TestPositionsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		p := Random(1+rng.Intn(40), rng)
		inv := p.Positions()
		if err := inv.Validate(); err != nil {
			t.Fatalf("Positions invalid: %v", err)
		}
		if !inv.Positions().Equal(p) {
			t.Fatalf("Positions not involutive for %v", p)
		}
		for r, item := range p {
			if inv[item] != r {
				t.Fatalf("Positions()[%d] = %d, want %d", item, inv[item], r)
			}
		}
	}
}

func TestComposeSizeMismatch(t *testing.T) {
	if _, err := Identity(3).RelativeTo(Identity(4)); err == nil {
		t.Fatal("RelativeTo accepted mismatched sizes")
	}
}

func TestRelativeTo(t *testing.T) {
	p := MustNew(2, 0, 1)
	s, err := p.RelativeTo(p)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(Identity(3)) {
		t.Fatalf("p relative to itself = %v, want identity", s)
	}
	// Relative to identity, the relabeling is p itself.
	s, err = p.RelativeTo(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(p) {
		t.Fatalf("p relative to identity = %v, want %v", s, p)
	}
}

func TestInversionCountSmall(t *testing.T) {
	cases := []struct {
		p    Perm
		want int64
	}{
		{Identity(0), 0},
		{Identity(1), 0},
		{Identity(5), 0},
		{MustNew(1, 0), 1},
		{MustNew(2, 1, 0), 3},
		{MustNew(4, 3, 2, 1, 0), 10},
		{MustNew(0, 2, 1), 1},
		{MustNew(3, 0, 2, 1), 4},
	}
	for _, c := range cases {
		if got := c.p.InversionCount(); got != c.want {
			t.Errorf("InversionCount(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

// bruteInversions is the quadratic oracle.
func bruteInversions(p Perm) int64 {
	var n int64
	for i := 0; i < len(p); i++ {
		for j := i + 1; j < len(p); j++ {
			if p[i] > p[j] {
				n++
			}
		}
	}
	return n
}

func TestInversionCountAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		p := Random(rng.Intn(64), rng)
		if got, want := p.InversionCount(), bruteInversions(p); got != want {
			t.Fatalf("InversionCount(%v) = %d, want %d", p, got, want)
		}
	}
}

func TestInversionCountScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	work := make([]int, 64)
	buf := make([]int, 64)
	for trial := 0; trial < 200; trial++ {
		p := Random(rng.Intn(64), rng)
		before := p.Clone()
		if got, want := p.InversionCountScratch(work, buf), bruteInversions(p); got != want {
			t.Fatalf("InversionCountScratch(%v) = %d, want %d", p, got, want)
		}
		if !p.Equal(before) {
			t.Fatalf("InversionCountScratch modified its receiver: %v -> %v", before, p)
		}
	}
	p := MustNew(3, 0, 2, 1, 5, 4)
	if avg := testing.AllocsPerRun(100, func() {
		p.InversionCountScratch(work, buf)
	}); avg != 0 {
		t.Fatalf("InversionCountScratch allocates %.1f objects per call, want 0", avg)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("undersized scratch did not panic")
		}
	}()
	Random(10, rng).InversionCountScratch(make([]int, 3), make([]int, 3))
}

func TestLehmerCodeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		p := Random(1+rng.Intn(32), rng)
		code := p.LehmerCode()
		var sum int64
		for r, c := range code {
			if c < 0 || c > r {
				t.Fatalf("code[%d] = %d out of [0,%d] for %v", r, c, r, p)
			}
			sum += int64(c)
		}
		if sum != p.InversionCount() {
			t.Fatalf("sum(code) = %d, want inversions %d for %v", sum, p.InversionCount(), p)
		}
		back, err := FromLehmerCode(code)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(p) {
			t.Fatalf("FromLehmerCode(LehmerCode(%v)) = %v", p, back)
		}
	}
}

func TestFromLehmerCodeRejectsInvalid(t *testing.T) {
	if _, err := FromLehmerCode([]int{0, 2}); err == nil {
		t.Fatal("accepted code value exceeding rank")
	}
	if _, err := FromLehmerCode([]int{-1}); err == nil {
		t.Fatal("accepted negative code value")
	}
}

func TestLexRankUnrankRoundTrip(t *testing.T) {
	for d := 0; d <= 6; d++ {
		total, err := Factorial(d)
		if err != nil {
			t.Fatal(err)
		}
		var i int64
		All(d, func(p Perm) bool {
			r, err := p.LexRank()
			if err != nil {
				t.Fatal(err)
			}
			if r != i {
				t.Fatalf("d=%d perm %v has LexRank %d, want %d", d, p, r, i)
			}
			back, err := Unrank(d, r)
			if err != nil {
				t.Fatal(err)
			}
			if !back.Equal(p) {
				t.Fatalf("Unrank(%d,%d) = %v, want %v", d, r, back, p)
			}
			i++
			return true
		})
		if i != total {
			t.Fatalf("All(%d) visited %d perms, want %d", d, i, total)
		}
	}
}

func TestUnrankRejectsOutOfRange(t *testing.T) {
	if _, err := Unrank(3, 6); err == nil {
		t.Fatal("accepted rank == d!")
	}
	if _, err := Unrank(3, -1); err == nil {
		t.Fatal("accepted negative rank")
	}
	if _, err := Unrank(25, 0); err == nil {
		t.Fatal("accepted size above MaxFactorialLen")
	}
}

func TestFactorial(t *testing.T) {
	want := []int64{1, 1, 2, 6, 24, 120, 720}
	for n, w := range want {
		got, err := Factorial(n)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Errorf("Factorial(%d) = %d, want %d", n, got, w)
		}
	}
	if _, err := Factorial(21); err == nil {
		t.Error("Factorial accepted overflow size")
	}
	if _, err := Factorial(-1); err == nil {
		t.Error("Factorial accepted negative size")
	}
	f20, err := Factorial(20)
	if err != nil || f20 != 2432902008176640000 {
		t.Errorf("Factorial(20) = %d, %v", f20, err)
	}
}

func TestRandomIsValidAndCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Every permutation of size 3 should appear in a modest sample.
	seen := map[string]bool{}
	for i := 0; i < 600; i++ {
		p := Random(3, rng)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		seen[p.String()] = true
	}
	if len(seen) != 6 {
		t.Fatalf("Random(3) produced %d distinct perms in 600 draws, want 6", len(seen))
	}
}

func TestReverseAndCycles(t *testing.T) {
	p := MustNew(0, 1, 2, 3)
	if got := p.Reverse(); !got.Equal(MustNew(3, 2, 1, 0)) {
		t.Fatalf("Reverse = %v", got)
	}
}

func TestPrefixAndClone(t *testing.T) {
	p := MustNew(3, 1, 0, 2)
	q := p.Clone()
	q[0] = 0
	if p[0] != 3 {
		t.Fatal("Clone aliases the permutation")
	}
}

func TestString(t *testing.T) {
	if got := MustNew(2, 0, 1).String(); got != "⟨2 0 1⟩" {
		t.Fatalf("String = %q", got)
	}
	if got := (Perm{}).String(); got != "⟨⟩" {
		t.Fatalf("empty String = %q", got)
	}
}

// randomPermFromSeed builds deterministic perms for testing/quick.
func randomPermFromSeed(seed int64, maxD int) Perm {
	rng := rand.New(rand.NewSource(seed))
	return Random(1+rng.Intn(maxD), rng)
}

func TestQuickInversionCountMatchesLehmerSum(t *testing.T) {
	f := func(seed int64) bool {
		p := randomPermFromSeed(seed, 48)
		var sum int64
		for _, c := range p.LehmerCode() {
			sum += int64(c)
		}
		return sum == p.InversionCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReverseInversions(t *testing.T) {
	// Reversing a permutation complements its inversion count:
	// inv(p) + inv(reverse(p)) = C(n,2).
	f := func(seed int64) bool {
		p := randomPermFromSeed(seed, 32)
		n := int64(p.Len())
		return p.InversionCount()+p.Reverse().InversionCount() == n*(n-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
