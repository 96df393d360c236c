package gateway

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over backend indices. Each backend
// contributes `replicas` virtual points (FNV-1a of "name#i"), sorted on
// a 64-bit circle; a key is owned by the backend of the first point at
// or clockwise of the key's hash.
//
// The construction gives the two properties the fleet needs:
//
//   - determinism: the ring is a pure function of (names, replicas), so
//     every gateway instance with the same backend list routes every
//     shard key identically;
//   - minimal remap: adding a backend only moves keys onto it, and
//     removing one only moves the keys it owned — all other shard→owner
//     assignments (and therefore the backends' hot Mallows table
//     caches) are untouched.
//
// The ring is immutable after New; health is not its concern: the
// gateway routes past an unroutable owner by load (see pick).
type Ring struct {
	points []ringPoint // sorted by hash
	n      int         // distinct backends
}

type ringPoint struct {
	hash    uint64
	backend int
}

// NewRing builds the ring for the named backends with the given number
// of virtual points each.
func NewRing(names []string, replicas int) *Ring {
	r := &Ring{points: make([]ringPoint, 0, len(names)*replicas), n: len(names)}
	for i, name := range names {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(name + "#" + strconv.Itoa(v)), backend: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Equal hashes (vanishingly rare) tie-break on backend index so
		// the ring stays a pure function of its inputs.
		return r.points[a].backend < r.points[b].backend
	})
	return r
}

// Owner returns the index of the backend owning key, or -1 on an empty
// ring.
func (r *Ring) Owner(key string) int {
	if len(r.points) == 0 {
		return -1
	}
	return r.points[r.at(key)].backend
}

// at locates the first point at or clockwise of key's hash.
func (r *Ring) at(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point
	}
	return i
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
