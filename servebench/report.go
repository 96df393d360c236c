package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/service"
)

// metricSpec names one reported metric. The lists below are the metrics
// BENCHMARK.json declares, in print order.
type metricSpec struct {
	name, unit, better string
}

var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower"},
	{"rankings_per_s", "1/s", "higher"},
	{"cpu_ms_per_ranking", "ms", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"allocs_per_ranking", "count", "lower"},
	{"alloc_kb_per_ranking", "KB", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"ndcg_mean", "ratio", "higher"},
	{"ppfair_mean", "%", "higher"},
	{"ppfair_hidden_mean", "%", "higher"},
}

// printedOnly are end-to-end metrics an untraced run prints but leaves
// out of the result line: failed_frac is 0 on every correct run (the
// result line's attempted and failed carry it), and the p99's run-to-run
// spread on a shared 2-vCPU VM, 0.2 to 0.5 of its median, is wider than
// any bound a tracked metric may carry.
var printedOnly = []metricSpec{
	{"failed_frac", "ratio", "lower"},
	{"latency_p99_ms", "ms", "lower"},
}

var perLayerSpecs = []metricSpec{
	{"gateway.self_ms", "ms", "lower"},
	{"gateway.retries", "count", "lower"},
	{"gateway.fallback_frac", "ratio", "lower"},
	{"transport.decode_ms", "ms", "lower"},
	{"transport.encode_ms", "ms", "lower"},
	{"transport.self_ms", "ms", "lower"},
	{"transport.req_kb", "KB", "lower"},
	{"transport.resp_kb", "KB", "lower"},
	{"admission.contention_ms", "ms", "lower"},
	{"admission.rejected", "count", "lower"},
	{"service.self_ms", "ms", "lower"},
	{"service.rankers_cached", "count", "lower"},
	{"fairrank.do_ms", "ms", "lower"},
	{"fairrank.self_ms", "ms", "lower"},
	{"fairrank.allocs_per_do", "count", "lower"},
	{"fairrank.draws_per_ranking", "count", "lower"},
	{"fairrank.truncated_frac", "ratio", "higher"},
	{"fairrank.table_hit_ratio", "ratio", "higher"},
	{"fairrank.pool_miss_ratio", "ratio", "lower"},
	{"fairness.groups_ms", "ms", "lower"},
	{"fairness.bounds_ms", "ms", "lower"},
	{"fairness.bounds_allocs", "count", "lower"},
	{"fairness.central_ms", "ms", "lower"},
	{"fairness.audit_ms", "ms", "lower"},
	{"fairness.prob_audit_ms", "ms", "lower"},
	{"mallows.draw_us", "us", "lower"},
	{"mallows.draw_topk_us", "us", "lower"},
	{"mallows.tables_ms", "ms", "lower"},
	{"gmallows.draw_us", "us", "lower"},
	{"gmallows.draw_topk_us", "us", "lower"},
	{"pl.draw_us", "us", "lower"},
	{"pl.draw_topk_us", "us", "lower"},
	{"quality.dcg_us", "us", "lower"},
	{"perm.inversions_us", "us", "lower"},
	{"rankers.ilp_ms", "ms", "lower"},
	{"rankers.detconstsort_ms", "ms", "lower"},
	{"rankers.ipf_ms", "ms", "lower"},
	{"rankers.grbinary_ms", "ms", "lower"},
	{"rankers.expost-fair_ms", "ms", "lower"},
	{"rankers.score_ms", "ms", "lower"},
	{"fairdp.solve_ms", "ms", "lower"},
	{"runtime.gc_per_1k_rankings", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"net.overhead_ms", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(ph *phaseResult, setups []timed) map[string]float64 {
	rankings := float64(ph.rankings)
	lat := make([]float64, len(ph.lat))
	for i, v := range ph.lat {
		lat[i] = float64(v) / 1e6
	}
	sort.Float64s(lat)
	var q measures
	var nq float64
	for _, qs := range ph.quality {
		for _, v := range qs {
			q.ndcg += v.ndcg
			q.ppfair += v.ppfair
			q.ppfairHidden += v.ppfairHidden
			nq++
		}
	}
	// Throughput, CPU and p50 are medians over the phase's quiet cycles,
	// so contention from outside the process moves them less.
	var perSec, p50 []float64
	for _, c := range quietCycles(ph) {
		cy := ph.cycles[c]
		perSec = append(perSec, float64(cy.rankings)/cy.wall.Seconds())
		cl := make([]float64, len(ph.latCycle[c]))
		for i, v := range ph.latCycle[c] {
			cl[i] = float64(v) / 1e6
		}
		sort.Float64s(cl)
		p50 = append(p50, percentile(cl, 0.50))
	}
	return map[string]float64{
		"setup_s":              setupSeconds(setups),
		"rankings_per_s":       median(perSec),
		"cpu_ms_per_ranking":   cpuMsPerRanking(ph),
		"latency_p50_ms":       median(p50),
		"latency_p99_ms":       percentile(lat, 0.99),
		"failed_frac":          safeDiv(float64(ph.failed), float64(ph.attempted)),
		"allocs_per_ranking":   float64(ph.mallocs) / rankings,
		"alloc_kb_per_ranking": float64(ph.allocBytes) / 1024 / rankings,
		"rss_peak_mb":          peakRSSMB(),
		"ndcg_mean":            q.ndcg / nq,
		"ppfair_mean":          q.ppfair / nq,
		"ppfair_hidden_mean":   q.ppfairHidden / nq,
	}
}

// cpuMsPerRanking is the median over the phase's quiet cycles of the
// process CPU per ranking, in ms.
func cpuMsPerRanking(ph *phaseResult) float64 {
	var v []float64
	for _, c := range quietCycles(ph) {
		cy := ph.cycles[c]
		v = append(v, float64(cy.cpu)/1e6/float64(cy.rankings))
	}
	return median(v)
}

// setupSeconds is the median over the quiet set-ups of their wall time,
// in seconds.
func setupSeconds(setups []timed) float64 {
	var v []float64
	for _, i := range quiet(setups) {
		v = append(v, setups[i].wall.Seconds())
	}
	return median(v)
}

// quietSteal is the share of the machine's CPU time the host may steal
// in an interval that always counts as quiet.
const quietSteal = 0.01

// clockTicks is the unit of /proc/stat (USER_HZ), per CPU per second.
const clockTicks = 100

// quietCycles returns, in order, the phase's quiet cycles.
func quietCycles(ph *phaseResult) []int {
	iv := make([]timed, len(ph.cycles))
	for c, cy := range ph.cycles {
		iv[c] = cy.timed
	}
	return quiet(iv)
}

// quiet returns, in order, the intervals in which the host stole no more
// of the machine's CPU time than in the interval a third of the way up
// the order of steal, or than quietSteal: at least a third of them, and
// nearly all of them while the host steals little. On a shared host,
// steal comes in bursts that stretch wall times and go with slower
// memory for the vCPUs that still run; the timings are taken over the
// intervals the host disturbed least, so a burst covering up to two
// thirds of a run does not move its figures.
func quiet(iv []timed) []int {
	rate := make([]float64, len(iv))
	for i, t := range iv {
		rate[i] = float64(t.steal) / t.wall.Seconds()
	}
	sorted := append([]float64(nil), rate...)
	sort.Float64s(sorted)
	limit := max(percentile(sorted, 1.0/3), quietSteal*clockTicks*float64(runtime.NumCPU()))
	var out []int
	for i, r := range rate {
		if r <= limit {
			out = append(out, i)
		}
	}
	return out
}

// engineCounters sums the engine and admission counters of the stack's
// backends.
type engineCounters struct {
	service.EngineMetrics
	rejected int64
}

func engineSnapshot(s *stack) engineCounters {
	var c engineCounters
	for _, svc := range s.svcs {
		m := svc.Metrics()
		e := m.Engine
		c.RankersCached += e.RankersCached
		c.Requests += e.Requests
		c.Draws += e.Draws
		c.DrawsTruncated += e.DrawsTruncated
		c.PoolGets += e.PoolGets
		c.PoolMisses += e.PoolMisses
		c.TableHits += e.TableHits
		c.TableMisses += e.TableMisses
		c.rejected += m.Queue.Rejected
	}
	return c
}

// perLayer computes the per-layer metrics of a traced run. base is the
// untraced phase (engine and runtime counters, the CPU baseline), traced
// the phase with spans at the benchmark's boundaries, rounds the replays.
func perLayer(s *stack, base, traced *phaseResult, before, after engineCounters, load []span, rounds []*replayRound, tableNs []int64, l int) (map[string]float64, []selfRow) {
	m := map[string]float64{}
	for _, sp := range perLayerSpecs {
		m[sp.name] = 0
	}
	calls := float64(traced.attempted)

	// Spans at the benchmark's boundaries: client ⊇ gateway ⊇ backend.
	lt := totalsByName(load)
	perCallMs := func(t layerTotal) float64 { return safeDiv(float64(t.self)/1e6, float64(t.count)) }
	m["net.overhead_ms"] = perCallMs(lt["client"])
	m["gateway.self_ms"] = perCallMs(lt["gateway"])
	m["transport.req_kb"] = float64(traced.reqBytes) / 1024 / calls
	m["transport.resp_kb"] = float64(traced.respBytes) / 1024 / calls
	if s.gw != nil {
		gm := s.gw.Metrics(context.Background())
		var retries int64
		for _, b := range gm.Backends {
			retries += b.Retries
		}
		m["gateway.retries"] = float64(retries)
		m["gateway.fallback_frac"] = safeDiv(float64(gm.Picker.Fallback), float64(gm.Picker.Primary+gm.Picker.Fallback))
	}

	// Admission contention: the backend handler's span under load minus
	// the same calls' handler span replayed alone on the same backend.
	sampled := len(rounds[0].liveNs)
	var loadSum, loadN float64
	for _, sp := range load {
		if sp.Name != "backend" {
			continue
		}
		if i, ok := callIndex(sp.Req); ok && i%l < sampled {
			loadSum += float64(sp.dur())
			loadN++
		}
	}
	live := make([]float64, sampled)
	for j := range live {
		per := make([]float64, len(rounds))
		for r, rr := range rounds {
			per[r] = float64(rr.liveNs[j])
		}
		live[j] = median(per)
	}
	m["admission.contention_ms"] = (safeDiv(loadSum, loadN) - mean(live)) / 1e6

	// Counters over the untraced phase.
	end := engineSnapshot(s)
	m["admission.rejected"] = float64(end.rejected)
	m["service.rankers_cached"] = float64(end.RankersCached)
	draws := float64(after.Draws - before.Draws)
	m["fairrank.draws_per_ranking"] = safeDiv(draws, float64(after.Requests-before.Requests))
	m["fairrank.truncated_frac"] = safeDiv(float64(after.DrawsTruncated-before.DrawsTruncated), draws)
	hits, misses := float64(after.TableHits-before.TableHits), float64(after.TableMisses-before.TableMisses)
	m["fairrank.table_hit_ratio"] = safeDiv(hits, hits+misses)
	m["fairrank.pool_miss_ratio"] = safeDiv(float64(after.PoolMisses-before.PoolMisses), float64(after.PoolGets-before.PoolGets))
	m["runtime.gc_per_1k_rankings"] = safeDiv(float64(base.numGC)*1000, float64(base.rankings))
	m["runtime.gc_pause_ms"] = safeDiv(float64(base.gcPauseNs)/1e6, float64(base.numGC))
	m["trace.overhead_ms"] = cpuMsPerRanking(traced) - cpuMsPerRanking(base)

	// The replay: medians over rounds of each layer's totals.
	totals := make([]map[string]layerTotal, len(rounds))
	for r, rr := range rounds {
		totals[r] = totalsByName(rr.spans)
	}
	names := map[string]bool{}
	for _, t := range totals {
		for name := range t {
			names[name] = true
		}
	}
	med := map[string]layerTotal{}
	for name := range names {
		durs, selfs := make([]float64, len(rounds)), make([]float64, len(rounds))
		for r, t := range totals {
			durs[r], selfs[r] = float64(t[name].dur), float64(t[name].self)
		}
		med[name] = layerTotal{count: totals[0][name].count, dur: int64(median(durs)), self: int64(median(selfs))}
	}
	durMs := func(name string) float64 { return safeDiv(float64(med[name].dur)/1e6, float64(med[name].count)) }
	selfMs := func(name string) float64 { return safeDiv(float64(med[name].self)/1e6, float64(med[name].count)) }
	m["transport.decode_ms"] = durMs("transport.decode")
	m["transport.encode_ms"] = durMs("transport.encode")
	m["transport.self_ms"] = selfMs("transport")
	m["service.self_ms"] = selfMs("service")
	m["fairrank.do_ms"] = durMs("fairrank")
	m["fairrank.self_ms"] = selfMs("fairrank")
	for _, name := range []string{"fairness.groups", "fairness.bounds", "fairness.central", "fairness.audit", "fairness.prob_audit", "fairdp.solve"} {
		m[name+"_ms"] = durMs(name)
	}
	for _, name := range []string{"mallows.draw", "mallows.draw_topk", "gmallows.draw", "gmallows.draw_topk", "pl.draw", "pl.draw_topk", "quality.dcg", "perm.inversions"} {
		m[name+"_us"] = durMs(name) * 1000
	}
	for _, alg := range fleetAlgorithms {
		if _, ok := m["rankers."+alg+"_ms"]; ok {
			m["rankers."+alg+"_ms"] = durMs("rankers." + alg)
		}
	}
	doAllocs, boundsAllocs := make([]float64, len(rounds)), make([]float64, len(rounds))
	for r, rr := range rounds {
		doAllocs[r] = float64(rr.doAllocs) / float64(rr.rankings)
		boundsAllocs[r] = float64(rr.boundsAllocs) / float64(rr.rankings)
	}
	m["fairrank.allocs_per_do"] = median(doAllocs)
	m["fairness.bounds_allocs"] = median(boundsAllocs)
	tables := make([]float64, len(tableNs))
	for i, v := range tableNs {
		tables[i] = float64(v) / 1e6
	}
	m["mallows.tables_ms"] = mean(tables)

	// The self-time table: boundary spans per call, replayed layers per
	// replayed call.
	var rows []selfRow
	for _, name := range sortedKeys(lt) {
		t := lt[name]
		rows = append(rows, selfRow{"load", name, t.count, float64(t.dur) / 1e6 / float64(t.count), float64(t.self) / 1e6 / float64(t.count)})
	}
	for _, name := range sortedKeys(med) {
		t := med[name]
		rows = append(rows, selfRow{"replay", name, t.count, float64(t.dur) / 1e6 / float64(t.count), float64(t.self) / 1e6 / float64(t.count)})
	}
	return m, rows
}

// selfRow is one line of the printed self-time table.
type selfRow struct {
	source string
	name   string
	count  int
	durMs  float64
	selfMs float64
}

// report prints the human-readable summary and builds the result line.
func report(out io.Writer, w *workload, opts options, ph *phaseResult, setups []timed, verr error, m map[string]float64, specs []metricSpec, self []selfRow) *result {
	mode := "untraced"
	if opts.trace {
		mode = "traced"
	}
	succeeded := ph.attempted - ph.failed
	fmt.Fprintf(out, "servebench %s (%s run), seed %d: %d calls attempted, %d succeeded, %d failed\n",
		w.name, mode, opts.seed, ph.attempted, succeeded, ph.failed)
	res := &result{Correct: true, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metricValue{}}
	for _, sp := range specs {
		v := m[sp.name]
		fmt.Fprintf(out, "  %-28s %14.6g %-6s (%s is better)\n", sp.name, v, sp.unit, sp.better)
		res.Metrics[sp.name] = metricValue{Value: v, Unit: sp.unit}
	}
	if !opts.trace {
		fmt.Fprintf(out, "  (setup_s is the median over %d of %d set-ups, and throughput, CPU and p50 over %d of the phase's %d cycles: those the host stole least from)\n",
			len(quiet(setups)), len(setups), len(quietCycles(ph)), len(ph.cycles))
		for _, sp := range printedOnly {
			fmt.Fprintf(out, "  %-28s %14.6g %-6s (%s is better; printed only, over %d calls)\n", sp.name, m[sp.name], sp.unit, sp.better, ph.attempted)
		}
	}
	if len(self) > 0 {
		fmt.Fprintf(out, "  self times (boundary spans per traced call; replayed layers per replayed call):\n")
		fmt.Fprintf(out, "    %-7s %-22s %7s %12s %12s\n", "source", "span", "count", "mean_ms", "self_ms")
		for _, r := range self {
			fmt.Fprintf(out, "    %-7s %-22s %7d %12.4f %12.4f\n", r.source, r.name, r.count, r.durMs, r.selfMs)
		}
		fmt.Fprintf(out, "  tracing overhead: %+.4f ms of CPU per ranking against the untraced phase\n", m["trace.overhead_ms"])
	}
	var problems []string
	if ph.failed > 0 {
		problems = append(problems, "first failure: "+ph.firstErr)
	}
	if ph.truncated {
		problems = append(problems, fmt.Sprintf("the timed phase stopped at %v before reaching its minimum call count", maxPhase))
	}
	if verr != nil {
		problems = append(problems, "verification: "+verr.Error())
	}
	for _, sp := range specs {
		if v := m[sp.name]; math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is not finite", sp.name))
			res.Metrics[sp.name] = metricValue{Value: 0, Unit: sp.unit}
		}
	}
	for _, p := range problems {
		fmt.Fprintln(out, "  FAIL", p)
		fmt.Fprintln(os.Stderr, "servebench: FAIL", p)
		res.Correct = false
	}
	return res
}

// percentile is the nearest-rank p-quantile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return safeDiv(sum, float64(len(v)))
}

// safeDiv is a/b, or 0 when nothing was counted.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// callIndex parses the sequence index out of a timed call's request ID.
func callIndex(id string) (int, bool) {
	_, num, ok := strings.Cut(id, "-")
	if !ok {
		return 0, false
	}
	i, err := strconv.Atoi(num)
	return i, err == nil
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
