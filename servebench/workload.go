package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	fairrank "repro"
	"repro/internal/scenario"
	"repro/internal/service"
)

// bodiesPerWorkload is the number of pre-encoded calls a workload cycles
// through. Every timed phase covers whole cycles, so the mix of calls
// behind each per-ranking metric is the same from run to run.
const bodiesPerWorkload = 64

// seedVariants is how many request seeds each single-request call
// cycles through, one per cycle: the first sixteen cycles send 1024
// distinct bodies.
const seedVariants = 16

// tolerance is the service default the requests leave unset; the oracle
// recomputes the fairness audit under it.
const tolerance = 0.1

// workload is one traffic mix: how its calls are generated and how the
// load reaches the serving stack.
type workload struct {
	name    string
	clients int  // closed-loop client goroutines (and connections)
	gateway bool // through the gateway over two backends, else direct to one backend
	batch   bool // POST /v1/rank/batch, else POST /v1/rank
	// generate builds the workload's calls from the benchmark seed.
	generate func(seed int64) ([]*call, error)
}

// call is one pre-encoded request plus what the oracle needs to check
// its response: one entry per ranking the response carries. A
// single-request call is encoded once up to its seed value, and each
// cycle closes the body with another pre-encoded seed.
type call struct {
	prefix  []byte   // the whole body, or the body up to its seed value
	seeds   [][]byte // seed variants closing the body: `<seed>}`
	entries []entry
}

// parts returns the body the call sends in cycle c, in two pieces.
func (c *call) parts(cycle int) ([]byte, []byte) {
	if len(c.seeds) == 0 {
		return c.prefix, nil
	}
	return c.prefix, c.seeds[cycle%len(c.seeds)]
}

// body returns the body the call sends in cycle c, in one piece.
func (c *call) body(cycle int) []byte {
	a, b := c.parts(cycle)
	return append(append(make([]byte, 0, len(a)+len(b)), a...), b...)
}

// seededCall encodes req once with its seed left open, and closes it
// with seedVariants seeds derived from (seed, salt, i).
func seededCall(req *service.RankRequest, seed int64, salt, i int, e entry) (*call, error) {
	req.Seed = 0
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	const tail = `"seed":0}`
	if !bytes.HasSuffix(b, []byte(tail)) {
		return nil, fmt.Errorf("encoded request does not end with its seed")
	}
	c := &call{prefix: b[:len(b)-len("0}")], entries: []entry{e}}
	for v := 0; v < seedVariants; v++ {
		s := strconv.AppendInt(nil, mix(seed, salt, i*seedVariants+v), 10)
		c.seeds = append(c.seeds, append(s, '}'))
	}
	return c, nil
}

// entry describes one requested ranking.
type entry struct {
	pool   *poolRef
	topK   int // expected ranking length, min(top_k, n)
	shape  shape
	member bool // candidates carry membership posteriors
}

// shape is an engine shape: the fields that select a cached ranker and
// its per-(n, θ) tables. Warm-up sends one call per distinct shape.
type shape struct {
	algorithm string
	central   string
	noise     string
	n         int
	theta     float64
}

// poolRef is the oracle's compact copy of one request's candidate pool,
// indexed by candidate number (IDs are "c" plus six digits).
type poolRef struct {
	score        []float64
	group        []uint8
	shadow       []uint8
	groupNames   []string
	shadowNames  []string
	groupShares  []float64
	shadowShares []float64
	// idcg[k] is the ideal DCG of the k best scores of the pool.
	idcg []float64
}

func (p *poolRef) n() int { return len(p.score) }

var workloads = []*workload{
	{name: "shortlist", clients: 2, generate: genShortlist},
	{name: "rerank", clients: 1, generate: genRerank},
	{name: "fleet-batch", clients: 2, gateway: true, batch: true, generate: genFleetBatch},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// noises is the rotation of noise axes of the sampling workloads.
var noises = []string{"mallows", "plackett-luce", "gmallows"}

// fleetAlgorithms is every algorithm fleet-batch cycles through: the
// nine the registry serves.
var fleetAlgorithms = []string{"mallows-best", "mallows", "pl-best", "ilp", "detconstsort", "ipf", "grbinary", "expost-fair", "score"}

// mix derives a sub-seed from the benchmark seed (a splitmix64 step), so
// pools, noise channels and request seeds are independent streams.
func mix(seed int64, salt, i int) int64 {
	z := uint64(seed) + uint64(salt)<<32 + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// genPool generates one scenario pool with benchmark-assigned IDs.
func genPool(spec scenario.Spec) ([]fairrank.Candidate, error) {
	pool, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	for i := range pool {
		pool[i].ID = candidateID(i)
	}
	return pool, nil
}

func candidateID(i int) string { return fmt.Sprintf("c%06d", i) }

// candidateIndex parses an ID minted by candidateID; -1 when malformed.
func candidateIndex(id string) int {
	if len(id) != 7 || id[0] != 'c' {
		return -1
	}
	v := 0
	for _, ch := range id[1:] {
		if ch < '0' || ch > '9' {
			return -1
		}
		v = v*10 + int(ch-'0')
	}
	return v
}

// genShortlist: 64 distinct 5000-candidate pools with four skewed groups,
// top_k=10 under the default mallows-best, noise rotating over the three
// axes, a fresh seed each cycle.
func genShortlist(seed int64) ([]*call, error) {
	calls := make([]*call, bodiesPerWorkload)
	topK := 10
	for i := range calls {
		pool, err := genPool(scenario.Spec{
			Name: "shortlist", N: 5000, Groups: 4,
			Proportions:  []float64{0.55, 0.25, 0.12, 0.08},
			Scores:       scenario.ScoresGaussian,
			ShadowGroups: 3,
			Seed:         mix(seed, 1, i),
		})
		if err != nil {
			return nil, err
		}
		noise := noises[i%len(noises)]
		req := service.RankRequest{Candidates: wireCandidates(pool), Noise: noise, TopK: &topK}
		calls[i], err = seededCall(&req, seed, 2, i, entry{
			pool:  newPoolRef(pool, topK),
			topK:  topK,
			shape: shape{algorithm: "mallows-best", central: "weak", noise: noise, n: len(pool), theta: 1},
		})
		if err != nil {
			return nil, err
		}
	}
	return calls, nil
}

// genRerank: 64 distinct 1000-candidate pools with three groups, full
// rankings, a fresh seed each cycle; noise rotates over the three axes,
// the criterion alternates ndcg/kt, θ alternates 1/0.1 in pairs, and
// every fourth call carries membership posteriors from a 10% label-flip
// channel.
func genRerank(seed int64) ([]*call, error) {
	calls := make([]*call, bodiesPerWorkload)
	for i := range calls {
		pool, err := genPool(scenario.Spec{
			Name: "rerank", N: 1000, Groups: 3,
			Proportions:  []float64{0.6, 0.3, 0.1},
			Scores:       scenario.ScoresGaussian,
			ShadowGroups: 3,
			Seed:         mix(seed, 3, i),
		})
		if err != nil {
			return nil, err
		}
		member := i%4 == 0
		if member {
			pool, err = scenario.NoiseSpec{Flip: 0.1, Seed: mix(seed, 4, i)}.Apply(pool)
			if err != nil {
				return nil, err
			}
		}
		noise := noises[i%len(noises)]
		criterion := []string{"ndcg", "kt"}[i%2]
		theta := []float64{1, 0.1}[(i/2)%2]
		req := service.RankRequest{Candidates: wireCandidates(pool), Noise: noise, Criterion: criterion, Theta: &theta}
		calls[i], err = seededCall(&req, seed, 5, i, entry{
			pool:   newPoolRef(pool, len(pool)),
			topK:   len(pool),
			shape:  shape{algorithm: "mallows-best", central: "weak", noise: noise, n: len(pool), theta: theta},
			member: member,
		})
		if err != nil {
			return nil, err
		}
	}
	return calls, nil
}

// genFleetBatch: 64 batches of 16 entries, each batch over one shared
// 100-candidate two-group pool. Entries cycle through the nine registered
// algorithms across the whole sequence, so consecutive batches start on
// different algorithms (and shard keys); every fourth entry uses the
// fair central.
func genFleetBatch(seed int64) ([]*call, error) {
	const entries = 16
	for _, name := range fleetAlgorithms {
		if _, ok := fairrank.LookupAlgorithm(name); !ok {
			return nil, fmt.Errorf("algorithm %q is not registered", name)
		}
	}
	calls := make([]*call, bodiesPerWorkload)
	for b := range calls {
		pool, err := genPool(scenario.Spec{
			Name: "fleet-batch", N: 100, Groups: 2,
			Proportions:  []float64{0.7, 0.3},
			Scores:       scenario.ScoresGaussian,
			ShadowGroups: 3,
			Seed:         mix(seed, 6, b),
		})
		if err != nil {
			return nil, err
		}
		ref := newPoolRef(pool, len(pool))
		cands := wireCandidates(pool)
		batch := service.BatchRequest{Requests: make([]service.RankRequest, entries)}
		c := &call{entries: make([]entry, entries)}
		for e := range batch.Requests {
			alg := fleetAlgorithms[(b*entries+e)%len(fleetAlgorithms)]
			central := ""
			if e%4 == 3 {
				central = "fair"
			}
			batch.Requests[e] = service.RankRequest{
				Candidates: cands,
				Algorithm:  alg,
				Central:    central,
				Seed:       mix(seed, 7, b*entries+e),
			}
			sh := shape{algorithm: alg, central: central, n: len(pool), theta: 1}
			if sh.central == "" {
				sh.central = "weak"
			}
			if info, _ := fairrank.LookupAlgorithm(alg); info.Sampling {
				sh.noise = string(info.Noise)
				if sh.noise == "" {
					sh.noise = "mallows"
				}
			}
			c.entries[e] = entry{pool: ref, topK: len(pool), shape: sh}
		}
		if c.prefix, err = json.Marshal(&batch); err != nil {
			return nil, err
		}
		calls[b] = c
	}
	return calls, nil
}

func wireCandidates(pool []fairrank.Candidate) []service.Candidate {
	out := make([]service.Candidate, len(pool))
	for i, c := range pool {
		out[i] = service.Candidate{ID: c.ID, Score: c.Score, Group: c.Group, Attrs: c.Attrs, Membership: c.Membership}
	}
	return out
}

// newPoolRef extracts the oracle's view of a pool: scores, hard groups
// and shadow values per candidate, their pool shares, and the ideal DCG
// up to maxK.
func newPoolRef(pool []fairrank.Candidate, maxK int) *poolRef {
	n := len(pool)
	ref := &poolRef{score: make([]float64, n), group: make([]uint8, n), shadow: make([]uint8, n)}
	groups := make([]string, n)
	shadows := make([]string, n)
	for i, c := range pool {
		ref.score[i] = c.Score
		groups[i] = c.Group
		shadows[i] = c.Attrs["shadow"]
	}
	ref.groupNames, ref.groupShares = labelIndex(groups, ref.group)
	ref.shadowNames, ref.shadowShares = labelIndex(shadows, ref.shadow)
	sorted := append([]float64(nil), ref.score...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	ref.idcg = make([]float64, maxK+1)
	for r := 0; r < maxK; r++ {
		ref.idcg[r+1] = ref.idcg[r] + sorted[r]*discount(r)
	}
	return ref
}

// labelIndex maps labels to indices of their sorted distinct values and
// returns those values with each one's share of the pool.
func labelIndex(labels []string, idx []uint8) ([]string, []float64) {
	seen := map[string]bool{}
	var names []string
	for _, l := range labels {
		if !seen[l] {
			seen[l] = true
			names = append(names, l)
		}
	}
	sort.Strings(names)
	pos := make(map[string]uint8, len(names))
	for i, name := range names {
		pos[name] = uint8(i)
	}
	shares := make([]float64, len(names))
	for i, l := range labels {
		idx[i] = pos[l]
		shares[idx[i]]++
	}
	for i := range shares {
		shares[i] /= float64(len(labels))
	}
	return names, shares
}

// discount is the DCG discount of 0-based rank r: 1/log2(r+2).
func discount(r int) float64 { return 1 / math.Log2(float64(r+2)) }
