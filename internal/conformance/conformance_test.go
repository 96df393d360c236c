package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	fairrank "repro"
	"repro/internal/scenario"
)

// testDraws honors CONFORMANCE_DRAWS (the CI knob for a faster run)
// and otherwise keeps the in-tree default modest.
func testDraws(t *testing.T) int {
	if v := os.Getenv("CONFORMANCE_DRAWS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("CONFORMANCE_DRAWS=%q is not a positive integer", v)
		}
		return n
	}
	if testing.Short() {
		return 60
	}
	return 150
}

// TestConformanceBuiltins is the acceptance gate: every algorithm×noise
// pair derived from the live registry — no hard-coded algorithm list —
// must satisfy its advertised metadata on the full conformance corpus.
func TestConformanceBuiltins(t *testing.T) {
	rep, err := Run(context.Background(), Config{Draws: testDraws(t)})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Failed() {
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err == nil {
			t.Logf("full report:\n%s", buf.String())
		}
	}

	// Coverage: the report must hold exactly the pairs the registry
	// metadata implies, derived here independently from the same
	// registry snapshot.
	wantPairs := map[string]bool{}
	noises := fairrank.Noises()
	for _, a := range fairrank.Algorithms() {
		if strings.HasPrefix(a.Name, testPrefix) {
			continue
		}
		switch {
		case a.Sampling && a.Noise == "":
			for _, n := range noises {
				wantPairs[a.Name+"×"+n.Name] = true
			}
		case a.Sampling:
			wantPairs[a.Name+"×"+string(a.Noise)] = true
		default:
			wantPairs[a.Name+"×"] = true
		}
	}
	gotPairs := map[string]bool{}
	for _, p := range rep.Pairs {
		gotPairs[p.Algorithm+"×"+p.Noise] = true
		if len(p.Scenarios) == 0 {
			t.Errorf("pair %s×%s ran no scenarios", p.Algorithm, p.Noise)
		}
	}
	for pair := range wantPairs {
		if !gotPairs[pair] {
			t.Errorf("registry-implied pair %s missing from the report", pair)
		}
	}
	for pair := range gotPairs {
		if !wantPairs[pair] {
			t.Errorf("report holds pair %s the registry does not imply", pair)
		}
	}
}

// TestConformanceHonorsGroupBounds pins the capability-flag dispatch:
// an algorithm bounded to two groups must only see two-group scenarios.
func TestConformanceHonorsGroupBounds(t *testing.T) {
	info, ok := fairrank.LookupAlgorithm(string(fairrank.AlgorithmGrBinary))
	if !ok {
		t.Skip("grbinary not registered")
	}
	rep, err := Run(context.Background(), Config{
		Draws:      8,
		Algorithms: []fairrank.AlgorithmInfo{info},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pairs) != 1 {
		t.Fatalf("%d pairs for one non-sampling algorithm, want 1", len(rep.Pairs))
	}
	if len(rep.Pairs[0].Scenarios) == 0 {
		t.Fatal("group-bounded algorithm ran no scenarios at all")
	}
	for _, sr := range rep.Pairs[0].Scenarios {
		if sr.Groups != 2 {
			t.Errorf("grbinary ran scenario %s with %d groups, want 2 only", sr.Scenario, sr.Groups)
		}
	}
}

// TestReportDeterministic: equal configs must produce equal reports —
// the suite itself honors the reproducibility it checks for.
func TestReportDeterministic(t *testing.T) {
	info, ok := fairrank.LookupAlgorithm(string(fairrank.AlgorithmMallows))
	if !ok {
		t.Skip("mallows not registered")
	}
	specs, err := scenario.Corpus("conformance")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Draws:      30,
		Algorithms: []fairrank.AlgorithmInfo{info},
		Scenarios:  specs[:2],
		Seed:       9,
	}
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	aj, bj := new(bytes.Buffer), new(bytes.Buffer)
	if err := a.WriteJSON(aj); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(bj); err != nil {
		t.Fatal(err)
	}
	if aj.String() != bj.String() {
		t.Fatal("equal configs produced different reports")
	}
}

func TestReportJSONShape(t *testing.T) {
	info, ok := fairrank.LookupAlgorithm(string(fairrank.AlgorithmScoreSorted))
	if !ok {
		t.Skip("score not registered")
	}
	specs, err := scenario.Corpus("conformance")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		Draws:      6,
		Algorithms: []fairrank.AlgorithmInfo{info},
		Scenarios:  specs[:1],
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if len(back.Pairs) != 1 || back.Pairs[0].Algorithm != info.Name {
		t.Fatalf("round-tripped report lost its pair: %+v", back.Pairs)
	}
	if s := rep.Summary(); !strings.Contains(s, "violations") {
		t.Fatalf("summary %q lacks a violation count", s)
	}
}

func TestRunSetupErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{Draws: 2}); err == nil {
		t.Error("cancelled run returned no error")
	}
	if _, err := Run(context.Background(), Config{
		Scenarios: []scenario.Spec{{Name: "bad", N: -1, Groups: 1}},
	}); err == nil {
		t.Error("ungenerable scenario accepted")
	}
	if _, err := Run(context.Background(), Config{
		Algorithms: []fairrank.AlgorithmInfo{},
	}); err == nil {
		t.Error("empty explicit algorithm list accepted")
	}
}
