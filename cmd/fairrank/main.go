// Command fairrank post-processes a ranking from a CSV file.
//
// The input CSV needs a header "id,score,group" (extra columns are kept
// as evaluation attributes). Example:
//
//	fairrank -in candidates.csv -algorithm mallows-best -theta 1 -samples 15
//
// The ranked candidates are written as CSV to stdout (or -out; -topk
// truncates to a shortlist), together with the ranking's self-audit on
// stderr: NDCG, draws evaluated, Kendall tau to the central ranking,
// the Two-Sided Infeasible Index and PPfair over the delivered prefix.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	fairrank "repro"
	"repro/internal/candidatecsv"
)

// algorithmNames and noiseNames enumerate the registry, so the usage
// text always matches what is actually rankable — algorithms registered
// by linked-in code appear without a CLI edit.
func algorithmNames() string {
	var names []string
	for _, a := range fairrank.Algorithms() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

func noiseNames() string {
	var names []string
	for _, n := range fairrank.Noises() {
		names = append(names, n.Name)
	}
	return strings.Join(names, ", ")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fairrank: ")
	in := flag.String("in", "-", `input CSV ("-" for stdin; header: id,score,group,...)`)
	out := flag.String("out", "-", `output CSV ("-" for stdout)`)
	algo := flag.String("algorithm", string(fairrank.DefaultAlgorithm),
		"one of: "+algorithmNames())
	noise := flag.String("noise", string(fairrank.NoiseMallows),
		"randomization mechanism of the sampling algorithms, one of: "+noiseNames())
	theta := flag.Float64("theta", fairrank.DefaultTheta, "noise dispersion θ (0 = uniform noise)")
	samples := flag.Int("samples", fairrank.DefaultSamples, "best-of-m sample count")
	sigma := flag.Float64("sigma", 0, "constraint noise σ for the attribute-aware algorithms")
	tol := flag.Float64("tol", fairrank.DefaultTolerance, "proportional constraint tolerance (0 = exact proportionality)")
	weakK := flag.Int("k", 0, fmt.Sprintf("weakly fair prefix length (0 = min(%d, n))", fairrank.DefaultWeakK))
	central := flag.String("central", string(fairrank.CentralWeaklyFair),
		"Mallows central ranking: weak, fair, or score")
	criterion := flag.String("criterion", string(fairrank.CriterionNDCG),
		"Mallows best-of-m selection: ndcg or kt")
	topK := flag.Int("topk", 0, "truncate the output to the best topk candidates (0 = full ranking)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	candidates, extra, err := readFrom(*in)
	if err != nil {
		log.Fatal(err)
	}
	// Algorithm, central, weak_k and sigma go into the Config; the
	// other flags ride on the Request, where explicit zeros (θ = 0,
	// tolerance = 0) are real values rather than "use the default".
	ranker, err := fairrank.NewRanker(fairrank.Config{
		Algorithm: fairrank.Algorithm(*algo),
		Central:   fairrank.Central(*central),
		WeakK:     *weakK,
		Sigma:     *sigma,
	})
	if err != nil {
		log.Fatal(err)
	}
	req := fairrank.Request{
		Candidates: candidates,
		Theta:      theta,
		Samples:    samples,
		Criterion:  fairrank.Criterion(*criterion),
		Noise:      fairrank.Noise(*noise),
		Tolerance:  tol,
		Seed:       seed,
	}
	if *topK > 0 {
		req.TopK = topK
	}
	res, err := ranker.Do(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeTo(*out, res.Ranking, extra); err != nil {
		log.Fatal(err)
	}
	d := res.Diagnostics
	mech := string(d.Noise)
	if mech == "" {
		mech = "none" // deterministic algorithms draw nothing
	}
	log.Printf("algorithm=%s noise=%s theta=%g samples=%d ndcg=%.4f draws=%d kendall_tau_to_central=%d infeasible_index=%d ppfair=%.1f%% (top %d, tol=%g)",
		d.Algorithm, mech, d.Theta, d.Samples, d.NDCG, d.DrawsEvaluated, d.CentralKendallTau, d.InfeasibleIndex, d.PPfair, d.TopK, d.Tolerance)
}

func readFrom(path string) ([]fairrank.Candidate, []string, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		r = f
	}
	return candidatecsv.Read(r)
}

func writeTo(path string, ranked []fairrank.Candidate, extra []string) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return candidatecsv.Write(w, ranked, extra)
}
