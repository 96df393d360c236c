// Committee ranking from votes: a hiring committee of nine members each
// ranks twelve internal candidates; the ballots are aggregated into a
// consensus ranking (Kemeny / footrule / Borda) which then serves as the
// central ranking of the Mallows mechanism — exactly the "result of a
// rank aggregation problem" the paper names as a natural central (§IV-A).
//
// This example drives the lower-level internal API directly (the
// aggregation step sits below the candidate-oriented facade).
//
// Run with:
//
//	go run ./examples/committee
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/mallows"
	"repro/internal/perm"
	"repro/internal/rankdist"
)

const (
	numCandidates = 12
	numVoters     = 9
)

func main() {
	rng := rand.New(rand.NewSource(17))

	// Ballots: noisy views of a common underlying preference — i.e.,
	// Mallows samples around a ground-truth ranking.
	truth := perm.Random(numCandidates, rng)
	model, err := mallows.New(truth, 0.8)
	if err != nil {
		log.Fatal(err)
	}
	votes := model.SampleN(numVoters, rng)

	// Aggregate the ballots three ways.
	kemeny, kemenyCost, err := aggregate.KemenyExact(votes)
	if err != nil {
		log.Fatal(err)
	}
	footrule, _, err := aggregate.Footrule(votes)
	if err != nil {
		log.Fatal(err)
	}
	borda, err := aggregate.Borda(votes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ballots aggregated over", numVoters, "voters:")
	report := func(name string, p perm.Perm) {
		cost, err := aggregate.KemenyCost(p, votes)
		if err != nil {
			log.Fatal(err)
		}
		d, err := rankdist.KendallTau(p, truth)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s %v  total-KT-to-ballots=%d  KT-to-truth=%d\n", name, p, cost, d)
	}
	report("kemeny", kemeny)
	report("footrule", footrule)
	report("borda", borda)
	fmt.Printf("  (kemeny optimum cost: %d)\n\n", kemenyCost)

	// The candidates split into two seniority cohorts; the committee
	// wants the final shortlist order not to bury either cohort, without
	// recording anyone's cohort in the decision pipeline: post-process
	// the Kemeny consensus with Mallows noise.
	cohort := make([]int, numCandidates)
	for i := range cohort {
		cohort[i] = i % 2
	}
	gr := fairness.MustGroups(cohort, 2)
	cons, err := fairness.Proportional(gr, 0.15)
	if err != nil {
		log.Fatal(err)
	}

	theta, err := core.CalibrateTheta(numCandidates, 6) // ≈6 discordant pairs of reshuffling
	if err != nil {
		log.Fatal(err)
	}
	final, err := core.PostProcess(kemeny, nil, core.Config{
		Noise:     core.NoiseMallows,
		Theta:     theta,
		Samples:   15,
		Criterion: core.SelectKT,
	}, rng.Int63())
	if err != nil {
		log.Fatal(err)
	}

	iiBefore, err := fairness.TwoSidedInfeasibleIndex(kemeny, gr, cons)
	if err != nil {
		log.Fatal(err)
	}
	iiAfter, err := fairness.TwoSidedInfeasibleIndex(final, gr, cons)
	if err != nil {
		log.Fatal(err)
	}
	d, err := rankdist.KendallTau(final, kemeny)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mallows post-processing (θ calibrated to %.3f):\n", theta)
	fmt.Printf("  consensus: %v  infeasible-index=%d\n", kemeny, iiBefore)
	fmt.Printf("  final:     %v  infeasible-index=%d  KT-to-consensus=%d\n", final, iiAfter, d)
}
