// Package fairrank post-processes rankings for proportionate fairness,
// implementing "Fairness in Ranking: Robustness through Randomization
// without the Protected Attribute" (Kliachkin, Psaroudaki, Mareček,
// Fotakis; ICDE 2024) together with the baselines it evaluates.
//
// The headline method admixes Mallows noise to a ranking: sample m
// permutations from a Mallows distribution centred on a (weakly fair)
// baseline ranking and keep the best under a quality criterion. The
// mechanism never reads the protected attribute, so the fairness it
// induces is robust to attributes that are unknown at ranking time.
//
// # Quick start
//
//	candidates := []fairrank.Candidate{
//		{ID: "alice", Score: 9.1, Group: "f"},
//		{ID: "bob", Score: 8.7, Group: "m"},
//		// …
//	}
//	ranked, err := fairrank.Rank(candidates, fairrank.Config{
//		Algorithm: fairrank.AlgorithmMallowsBest,
//		Theta:     1,
//		Samples:   15,
//		Seed:      42,
//	})
//
// # Serving
//
// Rank is the deliberate one-shot entry point: it rebuilds everything
// per call. For sustained traffic, construct a Ranker once and serve
// Requests through Do:
//
//	r, err := fairrank.NewRanker(fairrank.Config{})
//	// per request:
//	theta, seed := 0.5, int64(42)
//	res, err := r.Do(ctx, fairrank.Request{
//		Candidates: candidates,
//		Theta:      &theta, // per-request override; 0 is a real value
//		Seed:       &seed,
//	})
//	// res.Ranking, res.Diagnostics.{NDCG, PPfair, InfeasibleIndex, …}
//
// Request carries per-request overrides (Theta, Samples, Criterion,
// Tolerance, TopK, Seed) as pointer fields, so explicit zeros — θ = 0
// uniform noise, tolerance = 0 exact proportionality — are expressible;
// Config's zero-valued fields instead mean "use the default". Result
// returns the ranking together with diagnostics computed from state the
// engine already holds: NDCG, draws evaluated, Kendall tau to the
// central ranking, and a PPfair/InfeasibleIndex fairness audit of the
// delivered prefix. Do honors context cancellation and deadlines
// between Mallows draws.
//
// A Ranker returns exactly what Rank would for the same resolved
// parameters and seed while caching Mallows insertion-probability
// tables per (pool size, θ) — so mixed per-request dispersions share
// the cache — plus the DCG discount table, permutation scratch
// buffers, and pooled RNGs. DoParallel additionally fans the best-of-m
// draws across goroutines. Draw i of every request comes from an RNG
// stream seeded with a mix of (seed, i), so one seed gives one ranking:
// Do, DoParallel at any worker count and Rank agree. The HTTP serving
// layer in internal/service and cmd/fairrankd builds on this type.
//
// Alongside the Mallows mechanism the package exposes the evaluated
// baselines (DetConstSort, ApproxMultiValuedIPF, GrBinaryIPF, and the
// exact DCG-optimal fair ranking of the paper's ILP) and the metrics of
// the evaluation: NDCG, Kendall tau, the Two-Sided Infeasible Index and
// the percentage of P-fair positions.
//
// # Extension points
//
// Algorithm dispatch is a registry, not a switch: every algorithm —
// including all built-ins — is an AlgorithmInfo metadata record
// (attribute-blind, deterministic, supported group counts, applicable
// tunables) plus either a Strategy factory or, for the Algorithm-1
// sampling family, capability flags the engine interprets. Register
// adds one; it is immediately constructible by name through
// NewRanker/Rank, servable and cataloged by the HTTP layer
// (GET /v1/algorithms), and listed in the CLI usage — no dispatch table
// to edit anywhere. See ExampleRegister.
//
// The randomization mechanism of the sampling algorithms is a second
// axis of choice (§VI of the paper proposes mechanisms beyond Mallows):
// Config.Noise / Request.Noise select among "mallows", "gmallows" and
// "plackett-luce", the entries of the engine's noise table, which
// Noises lists. AlgorithmPlackettLuce ("pl-best") pins the
// Plackett–Luce mechanism as a first-class algorithm. Unknown names
// fail with errors wrapping ErrUnknownAlgorithm / ErrUnknownNoise.
//
// Implementation lives under internal/; see README.md for install,
// configuration tables, and command usage, and docs/ARCHITECTURE.md for
// the package map and the data flow of a ranking request.
package fairrank
