package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	fairrank "repro"
	"repro/internal/fairdp"
	"repro/internal/fairness"
	"repro/internal/mallows"
	"repro/internal/perm"
	"repro/internal/pl"
	"repro/internal/quality"
	"repro/internal/rankers"
	"repro/internal/service"
)

// gmallowsDecay is the per-position dispersion decay of the built-in
// gmallows noise axis (θ_j = θ·0.97^j), which the replay's generalized
// tables reproduce.
const gmallowsDecay = 0.97

// replayer replays a fixed sample of a workload's calls sequentially,
// one layer's public function at a time, outermost first:
//
//	transport  ServeHTTP on an in-memory recorder
//	  transport.decode, service (Service.Rank/RankBatch), transport.encode
//	    fairrank (Ranker.DoParallel, one worker) per ranking
//	      fairness, fairdp, rankers, sampler, quality and perm calls of
//	      that ranking's instance build, draws, selection and audit
//
// Every layer runs on one goroutine with one execution slot, so self
// times add up to the root's time.
type replayer struct {
	w       *workload
	live    http.Handler // a load-bearing backend's handler, for the uncontended handler span
	svc     *service.Service
	handler http.Handler
	rankers map[rankerKey]*fairrank.Ranker
	tables  map[tableKey]any
	// tableNs holds the build time of each distinct sampler table.
	tableNs []int64
	rounds  int
}

type rankerKey struct{ algorithm, central string }

type tableKey struct {
	axis  string
	n     int
	theta float64
}

func newReplayer(w *workload, live http.Handler) *replayer {
	svc := service.New(service.Config{Workers: 1})
	return &replayer{
		w: w, live: live, svc: svc, handler: service.NewHandler(svc),
		rankers: map[rankerKey]*fairrank.Ranker{},
		tables:  map[tableKey]any{},
	}
}

func (rp *replayer) close() { rp.svc.Close() }

// replayRound is one pass over the sample.
type replayRound struct {
	spans        []span
	liveNs       []int64 // per sampled call: the live backend handler's span
	doAllocs     uint64  // heap allocations inside Ranker.DoParallel
	boundsAllocs uint64  // heap allocations of the bound-table build
	rankings     int
}

func (rp *replayer) round(calls []*call) (*replayRound, error) {
	rr := &replayRound{}
	rp.rounds++
	for j, c := range calls {
		id := fmt.Sprintf("replay%d-%d", rp.rounds, j)
		status, d := serve(rp.live, rp.w.path(), c.body(0), id)
		if status != http.StatusOK {
			return nil, fmt.Errorf("replay of call %d on the live backend: status %d", j, status)
		}
		rr.liveNs = append(rr.liveNs, d)
		root, err := rp.call(c, id, rr)
		if err != nil {
			return nil, fmt.Errorf("replay of call %d: %w", j, err)
		}
		root.flatten(&rr.spans, id, 0, 0)
	}
	return rr, nil
}

// serve runs one request through h on an in-memory recorder.
func serve(h http.Handler, path string, body []byte, id string) (int, int64) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	return rec.Code, int64(time.Since(start))
}

// call replays one call through every layer and returns its tree.
func (rp *replayer) call(c *call, id string, rr *replayRound) (*vnode, error) {
	body := c.body(0)
	status, d := serve(rp.handler, rp.w.path(), body, id)
	if status != http.StatusOK {
		return nil, fmt.Errorf("ServeHTTP: status %d", status)
	}
	root := &vnode{name: "transport", dur: d}
	ctx := context.Background()
	var reqs []service.RankRequest
	var resp any
	svcNode := &vnode{name: "service"}
	if rp.w.batch {
		var b service.BatchRequest
		if err := root.run("transport.decode", func() error { return json.NewDecoder(bytes.NewReader(body)).Decode(&b) }); err != nil {
			return nil, err
		}
		start := time.Now()
		out, err := rp.svc.RankBatch(ctx, &b)
		svcNode.dur = int64(time.Since(start))
		if err != nil {
			return nil, err
		}
		resp, reqs = out, b.Requests
	} else {
		var r service.RankRequest
		if err := root.run("transport.decode", func() error { return json.NewDecoder(bytes.NewReader(body)).Decode(&r) }); err != nil {
			return nil, err
		}
		start := time.Now()
		out, err := rp.svc.Rank(ctx, &r)
		svcNode.dur = int64(time.Since(start))
		if err != nil {
			return nil, err
		}
		resp, reqs = out, []service.RankRequest{r}
	}
	root.add(svcNode)
	var buf bytes.Buffer
	if err := root.run("transport.encode", func() error { return json.NewEncoder(&buf).Encode(resp) }); err != nil {
		return nil, err
	}
	for i := range reqs {
		node, err := rp.engine(&reqs[i], rr)
		if err != nil {
			return nil, fmt.Errorf("ranking %d: %w", i, err)
		}
		svcNode.add(node)
	}
	return root, nil
}

// run times f as a child span of v named name.
func (v *vnode) run(name string, f func() error) error {
	start := time.Now()
	err := f()
	v.add(&vnode{name: name, dur: int64(time.Since(start))})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// engine replays one ranking: Ranker.DoParallel on one worker, then the
// layer calls that make up its instance build, draws, selection and
// audit, each as a child of the fairrank span.
func (rp *replayer) engine(req *service.RankRequest, rr *replayRound) (*vnode, error) {
	alg := req.Algorithm
	if alg == "" {
		alg = string(fairrank.DefaultAlgorithm)
	}
	info, ok := fairrank.LookupAlgorithm(alg)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", alg)
	}
	central := req.Central
	if central == "" {
		central = string(fairrank.CentralWeaklyFair)
	}
	ranker, err := rp.ranker(alg, central)
	if err != nil {
		return nil, err
	}
	n := len(req.Candidates)
	cands := make([]fairrank.Candidate, n)
	for i, c := range req.Candidates {
		cands[i] = fairrank.Candidate{ID: c.ID, Score: c.Score, Group: c.Group, Attrs: c.Attrs, Membership: c.Membership}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	_, err = ranker.DoParallel(context.Background(), fairrank.Request{
		Candidates: cands, Theta: req.Theta, Samples: req.Samples,
		Criterion: fairrank.Criterion(req.Criterion), Noise: fairrank.Noise(req.Noise),
		Tolerance: req.Tolerance, TopK: req.TopK, Seed: &req.Seed,
	}, 1)
	node := &vnode{name: "fairrank", dur: int64(time.Since(start))}
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	rr.doAllocs += m1.Mallocs - m0.Mallocs
	rr.rankings++

	// The instance, rebuilt layer by layer: group ids from the sorted
	// distinct labels, as the engine assigns them.
	k := n
	if req.TopK != nil && *req.TopK < n {
		k = *req.TopK
	}
	names := map[string]int{}
	var sorted []string
	add := func(g string) {
		if _, ok := names[g]; !ok {
			names[g] = 0
			sorted = append(sorted, g)
		}
	}
	for _, c := range req.Candidates {
		add(c.Group)
		for g := range c.Membership {
			add(g)
		}
	}
	sort.Strings(sorted)
	for i, g := range sorted {
		names[g] = i
	}
	assign := make([]int, n)
	scores := make(quality.Scores, n)
	member := false
	for i, c := range req.Candidates {
		assign[i] = names[c.Group]
		scores[i] = c.Score
		member = member || c.Membership != nil
	}
	var dist [][]float64
	if member {
		dist = make([][]float64, n)
		for i, c := range req.Candidates {
			row := make([]float64, len(sorted))
			if c.Membership == nil {
				row[assign[i]] = 1
			}
			for g, p := range c.Membership {
				row[names[g]] = p
			}
			dist[i] = row
		}
	}
	var gr *fairness.Groups
	var prob *fairness.ProbGroups
	if err := node.run("fairness.groups", func() error {
		var err error
		if gr, err = fairness.NewGroups(assign, len(sorted)); err != nil || dist == nil {
			return err
		}
		prob, err = fairness.NewProbGroups(dist, len(sorted))
		return err
	}); err != nil {
		return nil, err
	}
	tol := tolerance
	if req.Tolerance != nil {
		tol = *req.Tolerance
	}
	var cons *fairness.Constraints
	var tab *fairness.Bounds
	runtime.ReadMemStats(&m0)
	if err := node.run("fairness.bounds", func() error {
		var err error
		if cons, err = fairness.Proportional(gr, tol); err != nil {
			return err
		}
		tab = cons.Table(n)
		return nil
	}); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	rr.boundsAllocs += m1.Mallocs - m0.Mallocs
	var center perm.Perm
	switch central {
	case string(fairrank.CentralFairDCG):
		if err := node.run("fairdp.solve", func() error {
			var err error
			center, _, err = fairdp.Solve(scores, gr, cons.Table(n), nil)
			return err
		}); err != nil {
			return nil, err
		}
	case string(fairrank.CentralScoreOrder):
		if err := node.run("fairness.central", func() error {
			center = quality.Ideal(perm.Identity(n), scores)
			return nil
		}); err != nil {
			return nil, err
		}
	default:
		weakK := req.WeakK
		if weakK == 0 {
			weakK = min(10, n)
		}
		if err := node.run("fairness.central", func() error {
			var err error
			center, err = fairness.WeaklyFairRanking(scores, gr, cons, weakK)
			return err
		}); err != nil {
			return nil, err
		}
	}
	in := rankers.Instance{Initial: center, Scores: scores, Groups: gr, Bounds: tab, Prob: prob}
	rng := rand.New(rand.NewSource(req.Seed))
	var out perm.Perm
	if info.Sampling {
		out, err = rp.draws(node, req, info, in, k, rng)
	} else {
		out, err = rp.strategy(node, alg, req.Sigma, in, rng)
	}
	if err != nil {
		return nil, err
	}
	pfx := out[:k]
	if err := node.run("fairness.audit", func() error {
		v, err := fairness.EvaluateViolations(pfx, gr, tab)
		if err == nil {
			_ = v.TwoSidedAt(k)
		}
		return err
	}); err != nil {
		return nil, err
	}
	if prob != nil {
		if err := node.run("fairness.prob_audit", func() error {
			if _, err := fairness.EvaluateExpectedViolations(pfx, prob, tab); err != nil {
				return err
			}
			if _, err := fairness.ExpectedDisparateExposureAgainst(pfx, prob, nil, fairness.BaselinePrefix); err != nil {
				return err
			}
			_, err := fairness.ExpectedExposureGapAgainst(pfx, prob, nil, fairness.BaselinePrefix)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return node, nil
}

func (rp *replayer) ranker(alg, central string) (*fairrank.Ranker, error) {
	key := rankerKey{alg, central}
	if r, ok := rp.rankers[key]; ok {
		return r, nil
	}
	r, err := fairrank.NewRanker(fairrank.Config{Algorithm: fairrank.Algorithm(alg), Central: fairrank.Central(central)})
	if err != nil {
		return nil, err
	}
	rp.rankers[key] = r
	return r, nil
}

// draws replays the best-of-m loop: each draw through the request's
// sampler (truncated when the request asks for a prefix), each scored by
// the selection criterion.
func (rp *replayer) draws(node *vnode, req *service.RankRequest, info fairrank.AlgorithmInfo, in rankers.Instance, k int, rng *rand.Rand) (perm.Perm, error) {
	n := len(in.Initial)
	noise := string(info.Noise)
	if noise == "" {
		noise = req.Noise
	}
	if noise == "" {
		noise = string(fairrank.NoiseMallows)
	}
	theta := 1.0
	if req.Theta != nil {
		theta = *req.Theta
	}
	samples := 1
	if info.BestOf {
		samples = fairrank.DefaultSamples
		if req.Samples != nil {
			samples = *req.Samples
		}
	}
	truncated := k < n
	suffix := ""
	if truncated {
		suffix = "_topk"
	}
	var draw func(dst perm.Perm) perm.Perm
	var name string
	switch noise {
	case string(fairrank.NoiseMallows):
		t, err := rp.table(tableKey{"mallows", n, theta}, func() (any, error) { return mallows.NewTables(n, theta) })
		if err != nil {
			return nil, err
		}
		tab := t.(*mallows.Tables)
		m := &mallows.Model{Center: in.Initial, Theta: theta}
		name = "mallows.draw" + suffix
		draw = func(dst perm.Perm) perm.Perm {
			if truncated {
				return m.SampleTopKInto(tab, k, dst, rng)
			}
			return m.SampleInto(tab, dst, rng)
		}
	case string(fairrank.NoiseGMallows):
		t, err := rp.table(tableKey{"gmallows", n, theta}, func() (any, error) {
			thetas := make([]float64, n)
			for j := range thetas {
				thetas[j] = theta * math.Pow(gmallowsDecay, float64(j))
			}
			return mallows.NewGeneralizedTables(thetas)
		})
		if err != nil {
			return nil, err
		}
		gt := t.(*mallows.GeneralizedTables)
		var thresh []float64
		if truncated {
			thresh = gt.MissThresholds(k, make([]float64, n+1))
		}
		name = "gmallows.draw" + suffix
		draw = func(dst perm.Perm) perm.Perm {
			if truncated {
				return gt.SampleTopKInto(in.Initial, k, thresh, dst, rng)
			}
			return gt.SampleInto(in.Initial, dst, rng)
		}
	case string(fairrank.NoisePlackettLuce):
		logw := make([]float64, n)
		for rk, item := range in.Initial {
			logw[item] = -theta * float64(rk)
		}
		sc := pl.NewScratch(n)
		name = "pl.draw" + suffix
		draw = func(dst perm.Perm) perm.Perm {
			if truncated {
				return pl.SampleTopKInto(logw, k, dst, sc, rng)
			}
			return pl.SampleLogWeightsInto(logw, dst, sc, rng)
		}
	default:
		return nil, fmt.Errorf("no replay for noise %q", noise)
	}
	var score func(p perm.Perm) float64
	scoreName := "quality.dcg"
	if req.Criterion == string(fairrank.CriterionKT) {
		scoreName = "perm.inversions"
		pos := in.Initial.Positions()
		seq, work, buf := make(perm.Perm, k), make([]int, k), make([]int, k)
		score = func(p perm.Perm) float64 {
			for i, item := range p[:k] {
				seq[i] = pos[item]
			}
			return -float64(seq.InversionCountScratch(work, buf))
		}
	} else {
		disc := make([]float64, n)
		for r := range disc {
			disc[r] = quality.LogDiscount(r + 1)
		}
		cached := func(rank int) float64 { return disc[rank-1] }
		score = func(p perm.Perm) float64 {
			// DCGWith fails only on a ranking longer than its scores or a
			// negative prefix length; a draw of this pool is neither.
			v, _ := quality.DCGWith(p, in.Scores, k, cached)
			return v
		}
	}
	cur, best := make(perm.Perm, n), make(perm.Perm, n)
	bestScore := math.Inf(-1)
	for d := 0; d < samples; d++ {
		start := time.Now()
		cur = draw(cur)
		node.add(&vnode{name: name, dur: int64(time.Since(start))})
		if !info.BestOf {
			return cur, nil
		}
		start = time.Now()
		v := score(cur)
		node.add(&vnode{name: scoreName, dur: int64(time.Since(start))})
		if v > bestScore {
			best, cur, bestScore = cur, best, v
		}
	}
	return best, nil
}

// table returns the cached sampler table of key, building (and timing)
// it on first use, as the engine's per-(n, θ) cache does.
func (rp *replayer) table(key tableKey, build func() (any, error)) (any, error) {
	if t, ok := rp.tables[key]; ok {
		return t, nil
	}
	start := time.Now()
	t, err := build()
	if err != nil {
		return nil, fmt.Errorf("building %s tables (n=%d, θ=%g): %w", key.axis, key.n, key.theta, err)
	}
	rp.tableNs = append(rp.tableNs, int64(time.Since(start)))
	rp.tables[key] = t
	return t, nil
}

// strategy replays a deterministic (non-sampling) algorithm's ranker.
func (rp *replayer) strategy(node *vnode, alg string, sigma float64, in rankers.Instance, rng *rand.Rand) (perm.Perm, error) {
	var r rankers.Ranker
	switch alg {
	case "ilp":
		r = rankers.ILPRanker{Sigma: sigma}
	case "detconstsort":
		r = rankers.DetConstSort{Sigma: sigma}
	case "ipf":
		r = rankers.ApproxMultiValuedIPF{Sigma: sigma}
	case "grbinary":
		r = rankers.GrBinaryIPF{}
	case "expost-fair":
		r = rankers.ExPostFair{}
	case "score":
		r = rankers.ScoreSorted{}
	default:
		return nil, fmt.Errorf("no replay for algorithm %q", alg)
	}
	var out perm.Perm
	var err error
	start := time.Now()
	out, err = r.Rank(in, rng)
	node.add(&vnode{name: "rankers." + alg, dur: int64(time.Since(start))})
	return out, err
}
