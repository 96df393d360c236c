package fairrank

import (
	"context"
	"math"
	"testing"
)

// The name tables are the values a fuzzed name override picks from:
// unset, every built-in name and one unknown name.
var (
	fuzzAlgorithms = []Algorithm{"", AlgorithmMallows, AlgorithmMallowsBest, AlgorithmDetConstSort, AlgorithmIPF,
		AlgorithmGrBinary, AlgorithmILP, AlgorithmScoreSorted, AlgorithmPlackettLuce, AlgorithmExPostFair, "quicksort"}
	fuzzCentrals   = []Central{"", CentralWeaklyFair, CentralFairDCG, CentralScoreOrder, "median"}
	fuzzNoises     = []Noise{"", NoiseMallows, NoiseGMallows, NoisePlackettLuce, "fog"}
	fuzzCriteria   = []Criterion{"", CriterionNDCG, CriterionKT, "vibes"}
	fuzzGroupNames = []string{"", "g1", "g2", "g3"}
	// fuzzValues are the scores and membership probabilities a byte
	// picks: the edges of every numeric rule, then a grid in [0,1].
	fuzzValues = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 0, 1, 1.5, 0.5, 0.25, 0.75}
)

// fuzzValue maps a byte to fuzzValues, then to a grid in [0,1].
func fuzzValue(b byte) float64 {
	if int(b) < len(fuzzValues) {
		return fuzzValues[b]
	}
	return float64(b) / 255
}

// fuzzPool decodes up to 8 candidates of 4 bytes each: an ID out of
// four (empty or repeated ones included), a score, a group name (empty
// included) and a membership row. The row's top two bits choose none,
// a one-hot row at the group, a valid split over g1 and g2, or one
// entry under any name with any value.
func fuzzPool(data []byte) []Candidate {
	var pool []Candidate
	for len(data) >= 4 && len(pool) < 8 {
		id, score, group, row := data[0], data[1], data[2], data[3]
		data = data[4:]
		c := Candidate{
			ID:    [...]string{"", "a", "b", "c"}[id%4],
			Score: fuzzValue(score),
			Group: fuzzGroupNames[group%4],
		}
		switch row >> 6 {
		case 1:
			c.Membership = map[string]float64{c.Group: 1}
		case 2:
			v := float64(row&63) / 63
			c.Membership = map[string]float64{"g1": v, "g2": 1 - v}
		case 3:
			c.Membership = map[string]float64{fuzzGroupNames[row%4]: fuzzValue((row >> 2) & 15)}
		}
		pool = append(pool, c)
	}
	return pool
}

// FuzzCheckMatchesDo pins Check to Do over pools of at most 8
// candidates with every override fuzzed: whenever Check refuses a
// request, Do refuses it with the same error, and whenever Do ranks it,
// Check accepted it and counted max(1, DrawsEvaluated) draws, the fan-out
// the service sizes its worker grant by.
func FuzzCheckMatchesDo(f *testing.F) {
	valid := []byte{1, 20, 1, 0, 2, 30, 2, 0, 3, 40, 1, 0}
	f.Add(valid, uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), 0, 0.0, 0.0, 0, 0.0, 0, int64(1))
	f.Add(valid, uint8(2), uint8(1), uint8(3), uint8(2), uint16(0xffff), 3, 0.5, 1.0, 7, 0.1, 2, int64(7))
	f.Add(valid, uint8(5), uint8(2), uint8(1), uint8(1), uint16(0xffff), 1, math.Inf(1), math.NaN(), -1, -0.1, 0, int64(-3))
	f.Add([]byte{0, 255, 0, 0xc0, 1, 0, 1, 0xff}, uint8(10), uint8(4), uint8(4), uint8(3), uint16(0x3), 99, -1.0, math.Inf(1), 64, math.NaN(), -5, int64(0))
	f.Add([]byte{1, 5, 1, 0x80, 1, 6, 2, 0x41}, uint8(4), uint8(0), uint8(0), uint8(0), uint16(0x7f), 2, 0.0, 0.0, 100, 0.0, 1, int64(2))
	f.Fuzz(func(t *testing.T, data []byte, algo, central, noise, crit uint8, set uint16,
		weakK int, sigma, theta float64, samples int, tolerance float64, topK int, seed int64) {
		req := Request{
			Candidates: fuzzPool(data),
			Algorithm:  fuzzAlgorithms[int(algo)%len(fuzzAlgorithms)],
			Central:    fuzzCentrals[int(central)%len(fuzzCentrals)],
			Noise:      fuzzNoises[int(noise)%len(fuzzNoises)],
			Criterion:  fuzzCriteria[int(crit)%len(fuzzCriteria)],
		}
		// Bit i of set sends override i; an unset one inherits.
		if set&1 != 0 {
			req.WeakK = &weakK
		}
		if set&2 != 0 {
			req.Sigma = &sigma
		}
		if set&4 != 0 {
			req.Theta = &theta
		}
		if set&8 != 0 {
			samples = min(samples, 64)
			req.Samples = &samples
		}
		if set&16 != 0 {
			req.Tolerance = &tolerance
		}
		if set&32 != 0 {
			req.TopK = &topK
		}
		if set&64 != 0 {
			req.Seed = &seed
		}
		r, err := NewRanker(Config{})
		if err != nil {
			t.Fatal(err)
		}
		draws, cerr := r.Check(req)
		res, derr := r.Do(context.Background(), req)
		if cerr != nil {
			if derr == nil || derr.Error() != cerr.Error() {
				t.Fatalf("Check refused %+v with %q, Do gave %v", req, cerr, derr)
			}
			return
		}
		if derr != nil {
			// A request can pass every rule and still prove infeasible.
			return
		}
		if want := max(1, res.Diagnostics.DrawsEvaluated); draws != want {
			t.Fatalf("Check counted %d draws for %+v, Do evaluated %d", draws, req, res.Diagnostics.DrawsEvaluated)
		}
	})
}
