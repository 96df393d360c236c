package experiments

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fairness"
	"repro/internal/quality"
	"repro/internal/rankers"
	"repro/internal/stats"
)

// GermanConfig parameterizes the German Credit experiment (§V-C):
// rankings of the top-N applicants by credit amount, post-processed by
// five algorithms with representation constraints on the known Age–Sex
// attribute, and evaluated for P-fairness against both the known
// attribute (Fig. 5) and the withheld Housing attribute (Fig. 6), plus
// output quality (Fig. 7).
type GermanConfig struct {
	Seed       int64
	Sizes      []int     // ranking sizes (paper: 10…100 step 10)
	Reps       int       // repetitions per cell (paper: 15)
	Thetas     []float64 // Mallows dispersions per panel (paper: 0.5, 1)
	Sigmas     []float64 // constraint noise per panel (paper: 0, 1)
	CentralK   int       // k of the weakly fair central ranking
	BestOf     int       // Mallows best-of-m arm (paper: 15)
	Tolerance  float64   // representation tolerance around each group's share
	BootstrapN int
	Confidence float64
}

// DefaultGermanConfig mirrors the paper's setup.
func DefaultGermanConfig() GermanConfig {
	return GermanConfig{
		Seed:       3,
		Sizes:      []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
		Reps:       15,
		Thetas:     []float64{0.5, 1},
		Sigmas:     []float64{0, 1},
		CentralK:   10,
		BestOf:     15,
		Tolerance:  0.1,
		BootstrapN: 1000,
		Confidence: 0.95,
	}
}

func (c GermanConfig) validate() error {
	if len(c.Sizes) == 0 || len(c.Thetas) == 0 || len(c.Sigmas) == 0 {
		return fmt.Errorf("experiments: german config needs sizes, thetas, sigmas")
	}
	for _, n := range c.Sizes {
		if n < 2 || n > 1000 {
			return fmt.Errorf("experiments: german size %d outside [2,1000]", n)
		}
	}
	if c.Reps < 2 || c.BestOf < 1 || c.CentralK < 1 || c.BootstrapN < 1 {
		return fmt.Errorf("experiments: german reps/bestof/centralk/bootstrap too small")
	}
	if c.Tolerance < 0 {
		return fmt.Errorf("experiments: german tolerance %v", c.Tolerance)
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		return fmt.Errorf("experiments: german confidence %v", c.Confidence)
	}
	return nil
}

// GermanResult bundles everything §V-C reports.
type GermanResult struct {
	TableI *Table
	Fig5   *Figure // median PPfair w.r.t. Age–Sex (known attribute)
	Fig6   *Figure // median PPfair w.r.t. Housing (unknown attribute)
	Fig7   *Figure // mean NDCG ± 1 std
}

// Table1 renders the Age–Sex × Housing contingency table of the dataset
// (the paper's Table I).
func Table1(ds *dataset.Dataset) *Table {
	tab := ds.CrossTab()
	t := &Table{
		ID:     "table1",
		Title:  "Distribution of groups defined by Age, Sex, and Housing",
		Header: []string{"Age-Sex", "free", "own", "rent", "Total"},
	}
	colTotals := make([]int, dataset.NumHousing)
	grand := 0
	for a := dataset.AgeSex(0); a < dataset.NumAgeSex; a++ {
		rowTotal := 0
		row := []string{a.String()}
		for h := dataset.Housing(0); h < dataset.NumHousing; h++ {
			row = append(row, strconv.Itoa(tab[a][h]))
			rowTotal += tab[a][h]
			colTotals[h] += tab[a][h]
		}
		row = append(row, strconv.Itoa(rowTotal))
		grand += rowTotal
		t.Rows = append(t.Rows, row)
	}
	totalRow := []string{"Total"}
	for _, v := range colTotals {
		totalRow = append(totalRow, strconv.Itoa(v))
	}
	totalRow = append(totalRow, strconv.Itoa(grand))
	t.Rows = append(t.Rows, totalRow)
	return t
}

// German runs the full §V-C experiment and produces Table I and
// Figs. 5–7.
func German(cfg GermanConfig) (*GermanResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ds := dataset.SyntheticGermanCredit(rand.New(rand.NewSource(cfg.Seed)))

	res := &GermanResult{
		TableI: Table1(ds),
		Fig5: &Figure{
			ID: "fig5", Title: "Median % of P-fair positions w.r.t. Age-Sex (known attribute)",
			XLabel: "ranking size", YLabel: "median PPfair (Age-Sex)",
		},
		Fig6: &Figure{
			ID: "fig6", Title: "Median % of P-fair positions w.r.t. Housing (unknown attribute)",
			XLabel: "ranking size", YLabel: "median PPfair (Housing)",
		},
		Fig7: &Figure{
			ID: "fig7", Title: "Mean NDCG of output rankings (±1 std as the band)",
			XLabel: "ranking size", YLabel: "ndcg",
		},
	}

	// Cells are embarrassingly parallel: each (arm, size) cell derives
	// its own seed from the arm's name, so an arm's results are
	// independent of every other cell's randomness consumption and the
	// output is bit-identical whether cells run serially or concurrently.
	// (Because Mallows arm names carry θ but not σ, their rows also
	// repeat exactly across σ-panels, as they should.)
	type cellJob struct {
		arm           rankers.Ranker
		size          int
		known, unk, q *Point // result slots inside the series
	}
	var jobs []cellJob

	for _, theta := range cfg.Thetas {
		for _, sigma := range cfg.Sigmas {
			panelTitle := fmt.Sprintf("theta = %g, sigma = %g", theta, sigma)
			arms := []rankers.Ranker{
				rankers.DetConstSort{Sigma: sigma},
				rankers.ApproxMultiValuedIPF{Sigma: sigma},
				rankers.ILPRanker{Sigma: sigma},
				rankers.Mallows{Theta: theta, Samples: 1, Criterion: core.SelectFirst},
				rankers.Mallows{Theta: theta, Samples: cfg.BestOf, Criterion: core.SelectNDCG},
			}
			p5 := Panel{Title: panelTitle}
			p6 := Panel{Title: panelTitle}
			p7 := Panel{Title: panelTitle}
			for _, arm := range arms {
				s5 := Series{Label: arm.Name(), Points: make([]Point, len(cfg.Sizes))}
				s6 := Series{Label: arm.Name(), Points: make([]Point, len(cfg.Sizes))}
				s7 := Series{Label: arm.Name(), Points: make([]Point, len(cfg.Sizes))}
				for si, size := range cfg.Sizes {
					jobs = append(jobs, cellJob{
						arm: arm, size: size,
						known: &s5.Points[si], unk: &s6.Points[si], q: &s7.Points[si],
					})
				}
				p5.Series = append(p5.Series, s5)
				p6.Series = append(p6.Series, s6)
				p7.Series = append(p7.Series, s7)
			}
			res.Fig5.Panels = append(res.Fig5.Panels, p5)
			res.Fig6.Panels = append(res.Fig6.Panels, p6)
			res.Fig7.Panels = append(res.Fig7.Panels, p7)
		}
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	jobCh := make(chan cellJob)
	errCh := make(chan error, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobCh {
				rng := rand.New(rand.NewSource(cellSeed(cfg.Seed, job.arm.Name(), job.size)))
				cell, err := germanCell(ds, job.arm, job.size, cfg, rng)
				if err != nil {
					errCh <- fmt.Errorf("experiments: %s at size %d: %w", job.arm.Name(), job.size, err)
					continue
				}
				*job.known, *job.unk, *job.q = cell.known, cell.unknown, cell.ndcg
			}
		}()
	}
	for _, job := range jobs {
		jobCh <- job
	}
	close(jobCh)
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, err
	}
	return res, nil
}

// cellSeed derives a stable per-cell seed from the configured seed, the
// arm name, and the ranking size.
func cellSeed(seed int64, arm string, size int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, arm, size)
	return int64(h.Sum64())
}

// cellResult carries the three aggregated metrics for one
// (arm, size, panel) cell.
type cellResult struct {
	known   Point // median PPfair w.r.t. Age-Sex + bootstrap CI
	unknown Point // median PPfair w.r.t. Housing + bootstrap CI
	ndcg    Point // mean NDCG ± std
}

// germanCell runs one (arm, size) cell: build the top-N candidate pool,
// the weakly fair central ranking on the known attribute, post-process
// cfg.Reps times, and aggregate the three metrics.
func germanCell(ds *dataset.Dataset, arm rankers.Ranker, size int, cfg GermanConfig, rng *rand.Rand) (cellResult, error) {
	sub, err := ds.TopByAmount(size)
	if err != nil {
		return cellResult{}, err
	}
	scores := quality.Scores(sub.Scores())
	known, err := fairness.NewGroups(sub.AgeSexAssign(), int(dataset.NumAgeSex))
	if err != nil {
		return cellResult{}, err
	}
	unknown, err := fairness.NewGroups(sub.HousingAssign(), int(dataset.NumHousing))
	if err != nil {
		return cellResult{}, err
	}
	cKnown, err := fairness.Proportional(known, cfg.Tolerance)
	if err != nil {
		return cellResult{}, err
	}
	cUnknown, err := fairness.Proportional(unknown, cfg.Tolerance)
	if err != nil {
		return cellResult{}, err
	}
	k := cfg.CentralK
	if k > size {
		k = size
	}
	central, err := fairness.WeaklyFairRanking(scores, known, cKnown, k)
	if err != nil {
		return cellResult{}, fmt.Errorf("building weakly fair central: %w", err)
	}
	in := rankers.Instance{
		Initial: central,
		Scores:  scores,
		Groups:  known,
		Bounds:  cKnown.Table(size),
	}

	ppKnown := make([]float64, 0, cfg.Reps)
	ppUnknown := make([]float64, 0, cfg.Reps)
	ndcgs := make([]float64, 0, cfg.Reps)
	for rep := 0; rep < cfg.Reps; rep++ {
		out, err := arm.Rank(in, rng)
		if err != nil {
			return cellResult{}, err
		}
		pk, err := fairness.PPfair(out, known, cKnown)
		if err != nil {
			return cellResult{}, err
		}
		pu, err := fairness.PPfair(out, unknown, cUnknown)
		if err != nil {
			return cellResult{}, err
		}
		nd, err := quality.NDCG(out, scores, size)
		if err != nil {
			return cellResult{}, err
		}
		ppKnown = append(ppKnown, pk)
		ppUnknown = append(ppUnknown, pu)
		ndcgs = append(ndcgs, nd)
	}

	ivK, err := stats.BootstrapMedian(ppKnown, cfg.BootstrapN, cfg.Confidence, rng)
	if err != nil {
		return cellResult{}, err
	}
	ivU, err := stats.BootstrapMedian(ppUnknown, cfg.BootstrapN, cfg.Confidence, rng)
	if err != nil {
		return cellResult{}, err
	}
	mean := stats.Mean(ndcgs)
	std := stats.StdDev(ndcgs)
	x := float64(size)
	return cellResult{
		known:   Point{X: x, Y: ivK.Point, Lo: ivK.Lo, Hi: ivK.Hi},
		unknown: Point{X: x, Y: ivU.Point, Lo: ivU.Lo, Hi: ivU.Hi},
		ndcg:    Point{X: x, Y: mean, Lo: mean - std, Hi: mean + std},
	}, nil
}
