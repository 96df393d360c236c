package main

// The noise-sweep drill's lines: the conformance degradation sweep
// (internal/conformance.RunNoiseSweep) as one "noise-curve" line per
// algorithm × scenario × level, plus one "noise-summary" line.

import "repro/internal/conformance"

// NoiseCurveLine is one degradation-curve point in the BENCH artifact
// format.
type NoiseCurveLine struct {
	Action             string  `json:"Action"` // "noise-curve"
	Corpus             string  `json:"Corpus"`
	Algorithm          string  `json:"Algorithm"`
	Noise              string  `json:"Noise,omitempty"`
	Scenario           string  `json:"Scenario"`
	Draws              int     `json:"Draws"`
	Flip               float64 `json:"Flip"`
	Missing            float64 `json:"Missing"`
	MeanPPfairObserved float64 `json:"MeanPPfairObserved"`
	MeanPPfairTrue     float64 `json:"MeanPPfairTrue"`
	MeanExpectedPPfair float64 `json:"MeanExpectedPPfair"`
	MeanNDCG           float64 `json:"MeanNDCG"`
}

// NoiseSummaryLine is the sweep's run-level result.
type NoiseSummaryLine struct {
	Action     string `json:"Action"` // "noise-summary"
	Drill      string `json:"Drill"`
	Corpus     string `json:"Corpus"`
	Algorithms int    `json:"Algorithms"`
	Curves     int    `json:"Curves"`
	Levels     int    `json:"Levels"`
	Draws      int    `json:"Draws"`
	Violations int    `json:"Violations"`
}

func sweepLines(d drill, rep *conformance.NoiseReport) []any {
	var lines []any
	algos := map[string]bool{}
	for _, c := range rep.Curves {
		algos[c.Algorithm] = true
		for _, pt := range c.Points {
			lines = append(lines, NoiseCurveLine{
				Action:             "noise-curve",
				Corpus:             d.traffic.corpus,
				Algorithm:          c.Algorithm,
				Noise:              c.Noise,
				Scenario:           c.Scenario,
				Draws:              c.Draws,
				Flip:               pt.Flip,
				Missing:            pt.Missing,
				MeanPPfairObserved: pt.MeanPPfairObserved,
				MeanPPfairTrue:     pt.MeanPPfairTrue,
				MeanExpectedPPfair: pt.MeanExpectedPPfair,
				MeanNDCG:           pt.MeanNDCG,
			})
		}
	}
	return append(lines, NoiseSummaryLine{
		Action:     "noise-summary",
		Drill:      d.name,
		Corpus:     d.traffic.corpus,
		Algorithms: len(algos),
		Curves:     len(rep.Curves),
		Levels:     len(rep.Levels),
		Draws:      rep.Draws,
		Violations: len(rep.Violations),
	})
}
