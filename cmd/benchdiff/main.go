// Command benchdiff gates tracked benchmarks against a checked-in
// baseline. It reads Go benchmark results from `go test -json` streams
// (the BENCH artifact format) or from its own compact baseline lines,
// matches them by benchmark name, and fails loudly when a tracked line
// disappears or regresses beyond the allowed ratio.
//
// Machines differ in speed, so raw ns/op are never compared across
// files directly: the tool first computes the median current/baseline
// ratio over all shared tracked lines — the machine-speed scale — and
// flags only lines whose own ratio exceeds scale·max-ratio. A uniform
// slowdown (slower CI runner) cancels out; a single benchmark drifting
// away from its peers does not.
//
// Regenerate the baseline after a deliberate perf change:
//
//	go test -json -run '^$' -bench '<tracked>' -benchtime=10x . \
//	  | go run ./cmd/benchdiff -emit > BENCH_baseline.json
//
// Gate a PR run against it:
//
//	go run ./cmd/benchdiff -baseline BENCH_baseline.json -current BENCH_pr.json
//
// Alloc counts are compared exactly, not by ratio: a tracked benchmark
// must not report more allocs/op than its baseline — a baseline of 0
// must stay 0, since the zero-allocation draw paths are a correctness
// property here, not a speed preference.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// defaultTracked selects the draw-path micro benchmarks: large fixed-n
// samplers with stable per-op cost, safe to threshold even at smoke
// benchtimes. The figure/experiment benchmarks are deliberately
// untracked — their cost moves with experiment configs.
const defaultTracked = `^Benchmark(TopKTruncated|PLTopKTruncated|GMallowsTopKTruncated)/`

// result is one benchmark line, in both the compact baseline format and
// the internal representation of parsed test2json streams.
type result struct {
	Benchmark   string  `json:"Benchmark"`
	NsPerOp     float64 `json:"NsPerOp"`
	AllocsPerOp int64   `json:"AllocsPerOp"`
	hasAllocs   bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	baseline := flag.String("baseline", "", "checked-in baseline file (compact lines emitted by -emit)")
	current := flag.String("current", "", `bench artifact to gate ("-" or empty reads stdin); a go test -json stream or compact lines`)
	match := flag.String("match", defaultTracked, "regexp selecting the tracked benchmarks")
	maxRatio := flag.Float64("max-ratio", 2.0, "fail when a line's current/baseline ratio exceeds this after machine-speed normalization")
	emit := flag.Bool("emit", false, "emit compact baseline lines for the tracked benchmarks instead of diffing")
	flag.Parse()

	tracked, err := regexp.Compile(*match)
	if err != nil {
		log.Fatalf("-match: %v", err)
	}
	if *maxRatio <= 1 {
		log.Fatalf("-max-ratio = %v, want > 1", *maxRatio)
	}

	cur, err := readResults(*current, tracked)
	if err != nil {
		log.Fatal(err)
	}
	if *emit {
		names := sortedNames(cur)
		enc := json.NewEncoder(os.Stdout)
		for _, name := range names {
			r := cur[name]
			if err := enc.Encode(r); err != nil {
				log.Fatal(err)
			}
		}
		if len(names) == 0 {
			log.Fatal("no tracked benchmark lines in the input — wrong -match or empty stream?")
		}
		return
	}

	if *baseline == "" {
		log.Fatal("-baseline is required (or -emit to generate one)")
	}
	base, err := readResults(*baseline, tracked)
	if err != nil {
		log.Fatal(err)
	}
	if len(base) == 0 {
		log.Fatalf("baseline %s holds no tracked benchmark lines", *baseline)
	}

	// Machine-speed scale: the median current/baseline ratio over the
	// shared lines. With fewer than two shared lines there is no peer
	// group to normalize against; fall back to scale 1.
	var ratios []float64
	for name, b := range base {
		if c, ok := cur[name]; ok && b.NsPerOp > 0 {
			ratios = append(ratios, c.NsPerOp/b.NsPerOp)
		}
	}
	scale := 1.0
	if len(ratios) >= 2 {
		sort.Float64s(ratios)
		scale = ratios[len(ratios)/2]
		if len(ratios)%2 == 0 {
			scale = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
		}
	}

	failed := false
	for _, name := range sortedNames(base) {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Printf("MISSING  %s (baseline %.0f ns/op) — tracked line disappeared from the artifact\n", name, b.NsPerOp)
			failed = true
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp
		norm := ratio / scale
		status := "ok"
		if norm > *maxRatio {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("%-9s %s: %.0f -> %.0f ns/op (×%.2f raw, ×%.2f normalized)\n",
			status, name, b.NsPerOp, c.NsPerOp, ratio, norm)
		if b.hasAllocs && c.hasAllocs && c.AllocsPerOp > b.AllocsPerOp {
			fmt.Printf("ALLOCS    %s: %d allocs/op, baseline %d\n", name, c.AllocsPerOp, b.AllocsPerOp)
			failed = true
		}
	}
	for _, name := range sortedNames(cur) {
		if _, ok := base[name]; !ok {
			fmt.Printf("new       %s: %.0f ns/op (not in baseline — regenerate with -emit to track it)\n", name, cur[name].NsPerOp)
		}
	}
	fmt.Printf("machine-speed scale ×%.2f over %d shared lines, threshold ×%.1f\n", scale, len(ratios), *maxRatio)
	if failed {
		log.Fatal("tracked benchmarks regressed or went missing")
	}
}

// benchLine matches a benchmark result in `go test` output, e.g.
//
//	BenchmarkTopKTruncated/truncated-4  20  533883 ns/op  0 B/op  0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9]+) allocs/op)?`)

// countsLine matches the counts half of a benchmark result when
// test2json splits the line into two output events (the name with a
// trailing tab, then iterations and measurements); the benchmark name
// then comes from the event's Test field.
var countsLine = regexp.MustCompile(`^\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9]+) allocs/op)?`)

// readResults loads benchmark lines from path ("" or "-" is stdin),
// accepting a `go test -json` stream, raw `go test -bench` text, or the
// compact lines -emit writes, and keeps the tracked ones. A benchmark
// appearing twice keeps its last line.
func readResults(path string, tracked *regexp.Regexp) (map[string]result, error) {
	var rd io.Reader = os.Stdin
	if path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		rd = f
	}
	out := map[string]result{}
	record := func(name, ns, allocs string) {
		if !tracked.MatchString(name) {
			return
		}
		nsPerOp, err := strconv.ParseFloat(ns, 64)
		if err != nil {
			return
		}
		r := result{Benchmark: name, NsPerOp: nsPerOp}
		if allocs != "" {
			if a, err := strconv.ParseInt(allocs, 10, 64); err == nil {
				r.AllocsPerOp = a
				r.hasAllocs = true
			}
		}
		out[r.Benchmark] = r
	}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		text := line
		testName := ""
		if strings.HasPrefix(line, "{") {
			var obj struct {
				Action      string  `json:"Action"`
				Test        string  `json:"Test"`
				Output      string  `json:"Output"`
				Benchmark   string  `json:"Benchmark"`
				NsPerOp     float64 `json:"NsPerOp"`
				AllocsPerOp int64   `json:"AllocsPerOp"`
			}
			if err := json.Unmarshal([]byte(line), &obj); err != nil {
				continue // soak/noise lines with other shapes coexist in BENCH files
			}
			if obj.Benchmark != "" {
				// A compact baseline line carries the result directly.
				if tracked.MatchString(obj.Benchmark) {
					out[obj.Benchmark] = result{Benchmark: obj.Benchmark, NsPerOp: obj.NsPerOp, AllocsPerOp: obj.AllocsPerOp, hasAllocs: true}
				}
				continue
			}
			if obj.Action != "output" {
				continue
			}
			text = strings.TrimSuffix(obj.Output, "\n")
			testName = obj.Test
		}
		text = strings.TrimSpace(text)
		if m := benchLine.FindStringSubmatch(text); m != nil {
			record(m[1], m[2], m[3])
			continue
		}
		if testName == "" {
			continue
		}
		if m := countsLine.FindStringSubmatch(text); m != nil {
			record(testName, m[1], m[2])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func sortedNames(m map[string]result) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
