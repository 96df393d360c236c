package scenario

import (
	"bytes"
	"context"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	fairrank "repro"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Name: "det", N: 200, Groups: 3, Scores: ScoresGaussian, Ordering: OrderRandom, ShadowGroups: 2, Seed: 7}
	a, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal specs generated different pools")
	}
	spec.Seed = 8
	c, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical pools")
	}
}

func TestGenerateShape(t *testing.T) {
	for _, corpus := range CorpusNames() {
		specs, err := Corpus(corpus)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			if spec.N > 20000 && testing.Short() {
				continue
			}
			cands, err := spec.Generate()
			if err != nil {
				t.Fatalf("%s/%s: %v", corpus, spec.Name, err)
			}
			if len(cands) != spec.N {
				t.Fatalf("%s/%s: %d candidates, want %d", corpus, spec.Name, len(cands), spec.N)
			}
			ids := make(map[string]bool, len(cands))
			groups := make(map[string]int)
			for _, c := range cands {
				if c.ID == "" || ids[c.ID] {
					t.Fatalf("%s/%s: empty or duplicate ID %q", corpus, spec.Name, c.ID)
				}
				ids[c.ID] = true
				if math.IsNaN(c.Score) || math.IsInf(c.Score, 0) || c.Score < 0 {
					t.Fatalf("%s/%s: bad score %v", corpus, spec.Name, c.Score)
				}
				groups[c.Group]++
				if spec.ShadowGroups >= 2 && c.Attrs["shadow"] == "" {
					t.Fatalf("%s/%s: missing shadow attribute", corpus, spec.Name)
				}
			}
			if len(groups) != spec.Groups {
				t.Fatalf("%s/%s: %d distinct groups, want %d", corpus, spec.Name, len(groups), spec.Groups)
			}
			for g, n := range groups {
				if n == 0 {
					t.Fatalf("%s/%s: empty group %s", corpus, spec.Name, g)
				}
			}
		}
	}
}

func TestProportionsSkew(t *testing.T) {
	spec := Spec{Name: "skew", N: 100, Groups: 2, Proportions: []float64{0.8, 0.2}, Seed: 1}
	cands, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, c := range cands {
		counts[c.Group]++
	}
	if counts["g00"] != 80 || counts["g01"] != 20 {
		t.Fatalf("group sizes %v, want g00=80 g01=20", counts)
	}
}

func TestAdversarialAllMinorityAtBottom(t *testing.T) {
	spec := Spec{Name: "adv", N: 60, Groups: 2, Proportions: []float64{0.75, 0.25}, Ordering: OrderAdversarial, Seed: 3}
	cands, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var minMajority, maxMinority float64
	minMajority = math.Inf(1)
	maxMinority = math.Inf(-1)
	for _, c := range cands {
		if c.Group == "g00" {
			minMajority = math.Min(minMajority, c.Score)
		} else {
			maxMinority = math.Max(maxMinority, c.Score)
		}
	}
	if maxMinority > minMajority {
		t.Fatalf("adversarial ordering leaked: best minority score %v above worst majority score %v", maxMinority, minMajority)
	}
}

func TestTiedScoresAreTied(t *testing.T) {
	spec := Spec{Name: "tied", N: 100, Groups: 2, Scores: ScoresTied, Seed: 4}
	cands, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	for _, c := range cands {
		distinct[c.Score] = true
	}
	if len(distinct) > 5 {
		t.Fatalf("%d distinct tied scores, want ≤ 5", len(distinct))
	}
}

func TestGeneratedPoolsAreRankable(t *testing.T) {
	specs, err := Corpus("conformance")
	if err != nil {
		t.Fatal(err)
	}
	r, err := fairrank.NewRanker(fairrank.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		cands, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		seed := int64(1)
		if _, err := r.Do(context.Background(), fairrank.Request{Candidates: cands, Seed: &seed}); err != nil {
			t.Fatalf("%s: generated pool not rankable: %v", spec.Name, err)
		}
	}
}

func TestLargePoolGenerates(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 100000 generation in short mode")
	}
	specs, err := Corpus("soak")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Find(specs, "soak-100k-uniform")
	if err != nil {
		t.Fatal(err)
	}
	cands, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 100000 {
		t.Fatalf("%d candidates, want 100000", len(cands))
	}
}

func TestCorpusRoundTrip(t *testing.T) {
	specs, err := Corpus("conformance")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, specs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCorpus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specs, back) {
		t.Fatal("corpus did not round-trip through JSON")
	}
}

func TestReadCorpusRejects(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"empty array", `[]`, "empty corpus"},
		{"missing name", `[{"n": 10, "groups": 2, "seed": 1}]`, "no name"},
		{"zero n", `[{"name": "x", "n": 0, "groups": 2, "seed": 1}]`, "want ≥ 1"},
		{"groups exceed n", `[{"name": "x", "n": 3, "groups": 4, "seed": 1}]`, "want 1..n"},
		{"proportion count", `[{"name": "x", "n": 10, "groups": 2, "proportions": [1], "seed": 1}]`, "1 proportions for 2 groups"},
		{"negative proportion", `[{"name": "x", "n": 10, "groups": 2, "proportions": [0.5, -0.5], "seed": 1}]`, "want > 0"},
		{"unknown scores", `[{"name": "x", "n": 10, "groups": 2, "scores": "zipf", "seed": 1}]`, "unknown score distribution"},
		{"unknown ordering", `[{"name": "x", "n": 10, "groups": 2, "ordering": "sorted", "seed": 1}]`, "unknown ordering"},
		{"shadow one", `[{"name": "x", "n": 10, "groups": 2, "shadow_groups": 1, "seed": 1}]`, "want 0 or ≥ 2"},
		{"duplicate names", `[{"name": "x", "n": 10, "groups": 2, "seed": 1}, {"name": "x", "n": 10, "groups": 2, "seed": 2}]`, "duplicate spec name"},
		{"unknown field", `[{"name": "x", "n": 10, "groups": 2, "sed": 1}]`, "unknown field"},
	}
	for _, tc := range cases {
		_, err := ReadCorpus(strings.NewReader(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestLoadCorpusBuiltinAndFile(t *testing.T) {
	builtin, err := LoadCorpus("smoke")
	if err != nil {
		t.Fatal(err)
	}
	if len(builtin) == 0 {
		t.Fatal("built-in smoke corpus empty")
	}
	dir := t.TempDir()
	path := dir + "/corpus.json"
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, builtin); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	fromFile, err := LoadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(builtin, fromFile) {
		t.Fatal("file corpus differs from the built-in it was written from")
	}
	if _, err := LoadCorpus("no-such-corpus"); err == nil {
		t.Fatal("unknown corpus accepted")
	}
}

// writeFile is a tiny os.WriteFile wrapper keeping the imports tidy.
func writeFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }
