package gateway

import (
	"fmt"
	"testing"
)

func ringNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("b%d", i)
	}
	return names
}

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like real shard keys: algorithm|central|weak_k|sigma.
		keys[i] = fmt.Sprintf("algo-%d|weak|%d|%g", i%7, i%23, float64(i%11)/10)
	}
	return keys
}

// TestRingDeterminism pins that the ring is a pure function of its
// inputs: two rings built from the same names agree on every owner —
// the property that lets any number of gateway replicas route
// identically with no coordination.
func TestRingDeterminism(t *testing.T) {
	a := NewRing(ringNames(8), 128)
	b := NewRing(ringNames(8), 128)
	for _, key := range ringKeys(2000) {
		if ao, bo := a.Owner(key), b.Owner(key); ao != bo {
			t.Fatalf("owner(%q): ring A says %d, ring B says %d", key, ao, bo)
		}
	}
}

// TestRingMinimalRemapOnRemove pins the consistent-hash property the
// fleet's cache locality rests on: removing a backend moves only the
// keys it owned. Every other shard keeps its owner — and therefore its
// backend's hot Mallows tables.
func TestRingMinimalRemapOnRemove(t *testing.T) {
	const n = 8
	names := ringNames(n)
	full := NewRing(names, 128)
	// Removing the last name keeps surviving indices aligned between
	// the two rings.
	reduced := NewRing(names[:n-1], 128)
	removed := n - 1
	moved := 0
	keys := ringKeys(5000)
	for _, key := range keys {
		was, is := full.Owner(key), reduced.Owner(key)
		if was != removed && is != was {
			t.Fatalf("key %q moved %d → %d although backend %d was the one removed", key, was, is, removed)
		}
		if was == removed {
			moved++
		}
	}
	// Sanity: the removed backend owned roughly 1/n of the keys, so the
	// remap actually exercised the property rather than matching on an
	// empty set.
	if moved == 0 {
		t.Fatal("removed backend owned no keys; the remap check tested nothing")
	}
	if frac := float64(moved) / float64(len(keys)); frac > 3.0/n {
		t.Fatalf("removed backend owned %.1f%% of keys, want roughly %.1f%% — the ring is badly unbalanced", frac*100, 100.0/n)
	}
}

// TestRingMinimalRemapOnAdd pins the mirror property: adding a backend
// only moves keys onto the newcomer.
func TestRingMinimalRemapOnAdd(t *testing.T) {
	const n = 8
	names := ringNames(n + 1)
	before := NewRing(names[:n], 128)
	after := NewRing(names, 128)
	added := n
	gained := 0
	for _, key := range ringKeys(5000) {
		was, is := before.Owner(key), after.Owner(key)
		if is != was && is != added {
			t.Fatalf("key %q moved %d → %d although only backend %d was added", key, was, is, added)
		}
		if is == added {
			gained++
		}
	}
	if gained == 0 {
		t.Fatal("added backend gained no keys")
	}
}

// TestRingEmpty pins the degenerate cases.
func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 128)
	if got := r.Owner("key"); got != -1 {
		t.Fatalf("empty ring owner = %d, want -1", got)
	}
}
