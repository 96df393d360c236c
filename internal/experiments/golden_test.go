package experiments

// Golden pin of the paper's experiment numbers: Figs. 2–4, the German
// Credit figures (Table I and Figs. 5–7) and the binary German figure at
// the package's tiny test configurations, serialized as JSON so every
// float keeps its full float64 precision (the CSV output rounds). Any
// change to the sampling engines underneath — the Mallows and
// Plackett–Luce draws, Algorithm 1's selection loop, the fairness and
// quality metrics — that moves a single bit of an experiment shows up as
// a golden diff. After an intentional change, regenerate with:
//
//	go test ./internal/experiments -run TestExperimentsGolden -update
//
// and review the diff like any other code change.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file with the observed experiment values")

func TestExperimentsGolden(t *testing.T) {
	sg := tinyScoreGap()
	fig2, err := Fig2(sg)
	if err != nil {
		t.Fatal(err)
	}
	fig3, err := Fig3(sg)
	if err != nil {
		t.Fatal(err)
	}
	fig4, err := Fig4(sg)
	if err != nil {
		t.Fatal(err)
	}
	german, err := German(tinyGerman())
	if err != nil {
		t.Fatal(err)
	}
	binary, err := GermanBinary(tinyGerman())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(map[string]any{
		"fig2":         fig2,
		"fig3":         fig3,
		"fig4":         fig4,
		"german":       german,
		"germanbinary": binary,
	}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "experiments.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	line := 0
	for line < len(gotLines) && line < len(wantLines) && bytes.Equal(gotLines[line], wantLines[line]) {
		line++
	}
	var g, w []byte
	if line < len(gotLines) {
		g = gotLines[line]
	}
	if line < len(wantLines) {
		w = wantLines[line]
	}
	t.Errorf("experiment values changed; first difference at %s:%d\n--- want\n%s\n--- got\n%s\nIf the change is intentional, regenerate with -update and review the diff.",
		path, line+1, w, g)
}
