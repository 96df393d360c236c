// Package perm implements permutations over {0, …, d−1} and the
// combinatorial utilities the rest of the repository is built on:
// inverses, composition, inversion counting, Lehmer codes, and
// lexicographic ranking/unranking.
//
// # Representation
//
// A Perm p is an ordered list of items: p[r] is the item occupying rank r
// (rank 0 is the top of the ranking). The inverse view — "at which rank
// does item i sit?" — is produced by Positions. The paper writes σ(i) for
// the position of item i; that corresponds to Positions()[i] here.
package perm

import (
	"fmt"
	"strconv"
	"strings"
)

// Perm is a permutation of {0, …, len(p)−1} in one-line notation:
// p[r] is the item placed at rank r.
type Perm []int

// Identity returns the identity permutation of size d: item i at rank i.
func Identity(d int) Perm {
	p := make(Perm, d)
	for i := range p {
		p[i] = i
	}
	return p
}

// New validates items as a permutation of {0,…,len(items)−1} and returns
// it as a Perm. The slice is not copied; use Clone if the caller retains
// ownership.
func New(items []int) (Perm, error) {
	p := Perm(items)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustNew is New for tests and literals with known-good input.
// It panics on invalid input.
func MustNew(items ...int) Perm {
	p, err := New(items)
	if err != nil {
		panic(err)
	}
	return p
}

// Validate reports whether p is a permutation of {0,…,len(p)−1}.
func (p Perm) Validate() error {
	seen := make([]bool, len(p))
	for r, item := range p {
		if item < 0 || item >= len(p) {
			return fmt.Errorf("perm: rank %d holds item %d, want range [0,%d)", r, item, len(p))
		}
		if seen[item] {
			return fmt.Errorf("perm: item %d appears more than once", item)
		}
		seen[item] = true
	}
	return nil
}

// Len returns the number of items d.
func (p Perm) Len() int { return len(p) }

// Clone returns an independent copy of p.
func (p Perm) Clone() Perm {
	q := make(Perm, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q are the same permutation.
func (p Perm) Equal(q Perm) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Positions returns the inverse permutation: Positions()[item] is the rank
// at which item sits. Positions is an involution with respect to Perm:
// p.Positions().Positions().Equal(p) holds for every valid p.
func (p Perm) Positions() Perm {
	inv := make(Perm, len(p))
	for r, item := range p {
		inv[item] = r
	}
	return inv
}

// RelativeTo re-expresses p in the coordinate system of base: the result
// s satisfies s[r] = rank within base of the item p puts at rank r.
// If p == base the result is the identity; the Kendall tau distance
// between p and base equals the inversion count of the result.
func (p Perm) RelativeTo(base Perm) (Perm, error) {
	if len(p) != len(base) {
		return nil, fmt.Errorf("perm: relativeTo size mismatch %d vs %d", len(p), len(base))
	}
	basePos := base.Positions()
	s := make(Perm, len(p))
	for r, item := range p {
		s[r] = basePos[item]
	}
	return s, nil
}

// Reverse returns the reversed ranking (bottom becomes top).
func (p Perm) Reverse() Perm {
	q := make(Perm, len(p))
	for i := range p {
		q[i] = p[len(p)-1-i]
	}
	return q
}

// Swap exchanges the items at ranks i and j in place.
func (p Perm) Swap(i, j int) { p[i], p[j] = p[j], p[i] }

// String renders p in one-line notation, e.g. "⟨2 0 1⟩".
func (p Perm) String() string {
	var b strings.Builder
	b.WriteString("⟨")
	for i, v := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(v))
	}
	b.WriteString("⟩")
	return b.String()
}
