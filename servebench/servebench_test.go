package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
)

// benchmarkSpec is the part of BENCHMARK.json the self-tests check.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestShortRunPrintsEveryMetric runs every workload briefly, untraced and
// traced, and checks that each prints every metric BENCHMARK.json names,
// with its unit and a finite value, on its human lines and its result line.
func TestShortRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			code := run(&out, options{
				workload: sw.Name, seed: 7, seconds: 0.2, trace: trace,
				setups: 1, replayCalls: 2, replayRounds: 1,
			})
			if code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s", sw.Name, trace, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", sw.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", sw.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", sw.Name, trace, len(res.Metrics), len(want))
			}
			human := strings.Join(lines[:len(lines)-1], "\n")
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", sw.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, want %q", sw.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", sw.Name, trace, m.Name, got.Value)
				}
				if !strings.Contains(human, " "+m.Name+" ") {
					t.Errorf("%s trace=%v: metric %s not printed", sw.Name, trace, m.Name)
				}
			}
		}
	}
}

// TestOracleRejectsCorruptedResponses serves one real ranking, checks
// that the oracle accepts it, and that it rejects hand-corrupted copies.
func TestOracleRejectsCorruptedResponses(t *testing.T) {
	pool, err := genPool(scenario.Spec{Name: "oracle", N: 40, Groups: 3, ShadowGroups: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	topK := 10
	req := service.RankRequest{Candidates: wireCandidates(pool), TopK: &topK, Seed: 5}
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	c := &call{prefix: body, entries: []entry{{pool: newPoolRef(pool, topK), topK: topK}}}
	svc := service.New(service.Config{})
	defer svc.Close()
	resp, err := svc.Rank(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(r *service.RankResponse) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if _, err := checkResponse(c, false, 200, encode(resp)); err != nil {
		t.Fatalf("oracle rejects a served response: %v", err)
	}
	corrupt := map[string]func(r *service.RankResponse){
		"duplicate id":     func(r *service.RankResponse) { r.Ranking[3] = r.Ranking[1]; r.Ranking[3].Rank = 4 },
		"short ranking":    func(r *service.RankResponse) { r.Ranking = r.Ranking[:len(r.Ranking)-1] },
		"ndcg off by 1e-6": func(r *service.RankResponse) { r.Diagnostics.NDCG += 1e-6; r.NDCG += 1e-6 },
	}
	for name, f := range corrupt {
		var r service.RankResponse
		if err := json.Unmarshal(encode(resp), &r); err != nil {
			t.Fatal(err)
		}
		f(&r)
		if _, err := checkResponse(c, false, 200, encode(&r)); err == nil {
			t.Errorf("oracle accepts a response with a %s", name)
		}
	}
	if _, err := checkResponse(c, false, 429, []byte(`{"error":"server saturated"}`)); err == nil {
		t.Error("oracle accepts a 429")
	}
}

// TestSelfTimes checks the self-time arithmetic on a synthetic tree:
// overlapping children count once, a child reaching past its parent is
// clipped, and grandchildren count against their own parent only.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Req: "r", Name: "root", Start: 0, End: 100},
		{ID: 2, Req: "r", Name: "a", Start: 10, End: 40},
		{ID: 3, Req: "r", Name: "b", Start: 30, End: 60},
		{ID: 4, Req: "r", Name: "c", Start: 90, End: 120},
		{ID: 5, Req: "r", Name: "a1", Start: 15, End: 20},
	}
	for i, p := range []int{0, 1, 1, 1, 2} {
		spans[i].Parent = p
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}

	// nest recovers the same parents from the intervals alone, for the
	// spans that lie inside their parent.
	nested := []span{spans[2], spans[4], spans[0], spans[1]}
	for i := range nested {
		nested[i].Parent = -1
	}
	nest(nested)
	parents := map[string]int{}
	for _, s := range nested {
		parents[s.Name] = s.Parent
	}
	if parents["root"] != 0 || parents["a"] != 1 || parents["b"] != 1 || parents["a1"] != 2 {
		t.Errorf("nest parents = %v", parents)
	}

	// Replayed children laid end to end: a parent shorter than its
	// children's sum has self time 0, never a negative one.
	root := &vnode{name: "p", dur: 10, kids: []*vnode{{name: "x", dur: 6}, {name: "y", dur: 7}}}
	var flat []span
	root.flatten(&flat, "v", 0, 0)
	totals := totalsByName(flat)
	if totals["p"].self != 0 || totals["x"].self != 6 || totals["y"].self != 7 {
		t.Errorf("replayed self times = %+v", totals)
	}
	root.dur = 20
	flat = flat[:0]
	root.flatten(&flat, "v", 0, 0)
	if got := totalsByName(flat)["p"].self; got != 7 {
		t.Errorf("replayed parent self = %d, want 7", got)
	}
}

// TestQuietCycles checks which cycles and set-ups the timings are taken
// over: all but a burst while the host steals little, and the
// least-stolen third while it steals throughout.
func TestQuietCycles(t *testing.T) {
	// Steal is given in multiples of the rate that always counts as quiet,
	// over one-second cycles.
	calm := quietSteal * clockTicks * float64(runtime.NumCPU())
	phase := func(steal ...float64) *phaseResult {
		ph := &phaseResult{}
		for _, s := range steal {
			ph.cycles = append(ph.cycles, cycleStat{timed: timed{wall: time.Second, steal: int64(s * calm)}, rankings: 64})
		}
		return ph
	}
	for _, tc := range []struct {
		name  string
		steal []float64
		want  []int
	}{
		{"nothing stolen", []float64{0, 0, 0}, []int{0, 1, 2}},
		{"one burst", []float64{0, 1, 0, 25, 0}, []int{0, 1, 2, 4}},
		{"stolen throughout", []float64{40, 10, 30, 20, 50, 60}, []int{1, 3}},
	} {
		got := quietCycles(phase(tc.steal...))
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: quiet cycles %v, want %v", tc.name, got, tc.want)
		}
	}

	// setup_s: a set-up slowed by a burst of steal is left out.
	setups := []timed{
		{wall: 100 * time.Millisecond},
		{wall: 900 * time.Millisecond, steal: int64(math.Ceil(calm))},
		{wall: 200 * time.Millisecond},
	}
	if got := setupSeconds(setups); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("setup_s over quiet set-ups = %v, want 0.15", got)
	}
}
