// Package experiments regenerates every figure and complexity claim of the
// paper's evaluation (§IV plus Theorems 5/6 and §III-B). Each experiment
// returns a Figure — named data series matching the curves the paper plots —
// that can be rendered as an aligned text table or TSV.
//
// Parameterisation note: the paper's worked example (§IV: e_in ≈ 10230,
// e_out ≈ 614 at n = 2¹¹, r = 2) pins the probability formulas to the
// community size s = n/r with log = log₂: p = c·log₂(s)/s and q = c/s.
// All experiments follow that convention.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"cdrw/internal/core"
	"cdrw/internal/gen"
	"cdrw/internal/metrics"
	"cdrw/internal/rng"
)

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a reproduced plot: a set of curves over a common x-axis meaning.
type Figure struct {
	Name   string
	Title  string
	XLabel string
	YLabel string
	// Engine names the detection engine that produced the figure's CDRW
	// data points (empty for figures that run no detection). Options is the
	// resolved option fingerprint of the figure's first detection run —
	// instance-derived values (δ = Φ_G, per-trial seeds) are recorded at
	// their first-instance values. Both are embedded in the JSON output so
	// sweep runs from different engines or option sets stay
	// distinguishable.
	Engine  string
	Options string
	Series  []Series
}

// stamp records the engine and resolved option fingerprint of the
// detection runs behind this figure, from its first instance's options.
func (f *Figure) stamp(n int, opts ...core.Option) {
	s, err := core.Resolve(n, opts...)
	if err != nil {
		return // validation failures surface from the run itself
	}
	f.Engine = s.Engine.String()
	f.Options = s.Fingerprint()
}

// WriteTable renders the figure as an aligned text table, one row per x
// value and one column per series.
func (f *Figure) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "# %s — %s\n", f.Name, f.Title)
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Label)
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for i := 0; i < f.maxLen(); i++ {
		row := make([]string, 0, len(f.Series)+1)
		row = append(row, f.xAt(i))
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf("%.4f", s.Y[i]))
			} else {
				row = append(row, "")
			}
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	return tw.Flush()
}

// WriteTSV renders the figure as tab-separated values with a header row.
func (f *Figure) WriteTSV(w io.Writer) error {
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Label)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, "\t")); err != nil {
		return err
	}
	for i := 0; i < f.maxLen(); i++ {
		row := []string{f.xAt(i)}
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf("%g", s.Y[i]))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

func (f *Figure) maxLen() int {
	n := 0
	for _, s := range f.Series {
		if len(s.Y) > n {
			n = len(s.Y)
		}
	}
	return n
}

func (f *Figure) xAt(i int) string {
	for _, s := range f.Series {
		if i < len(s.X) {
			return fmt.Sprintf("%g", s.X[i])
		}
	}
	return ""
}

// Config controls experiment scale and averaging.
type Config struct {
	// Trials is the number of independent graph samples averaged per data
	// point (default 3).
	Trials int
	// Seed drives all sampling; runs are reproducible.
	Seed uint64
	// Quick shrinks graph sizes (for tests and benchmarks); the full sizes
	// reproduce the paper's axes.
	Quick bool
	// Engine selects the detection backend for the accuracy figures (the
	// zero value is the reference engine). The complexity figures are
	// engine-specific by nature and ignore it.
	Engine core.Engine
	// CongestBatch batches the CONGEST engine's pool loop (values ≤ 1 draw
	// one seed at a time); it reaches every congest-engine detection run
	// and is stamped into the figures' option fingerprints, so JSON records
	// of batched and one-seed runs stay distinguishable.
	CongestBatch int
}

func (c Config) withDefaults() Config {
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// detectOpts is the one option set every accuracy experiment runs with:
// δ = Φ_G of the instance, a seed derived from the trial seed, and the
// configured engine (with the ground-truth r as the parallel engine's
// estimate). Keeping it in one place is what lets -engine swap the backend
// of the whole figure suite without touching the figures.
func detectOpts(ec Config, cfg gen.PPMConfig, seed uint64) []core.Option {
	opts := []core.Option{
		core.WithDelta(cfg.ExpectedConductance()),
		core.WithSeed(seed + 0x9e37),
		core.WithEngine(ec.Engine),
	}
	if ec.Engine == core.EngineParallel {
		opts = append(opts, core.WithCommunityEstimate(cfg.R))
	}
	if ec.Engine == core.EngineCongest && ec.CongestBatch > 1 {
		opts = append(opts, core.WithCongestBatch(ec.CongestBatch))
	}
	return opts
}

// cdrwFScore generates a PPM graph, runs the full CDRW pool loop on the
// configured engine, and returns the paper's total F-score (average
// per-detection F against the seed's ground-truth block).
func cdrwFScore(ec Config, cfg gen.PPMConfig, seed uint64) (float64, error) {
	ppm, err := gen.NewPPM(cfg, rng.New(seed))
	if err != nil {
		return 0, err
	}
	res, err := core.Detect(ppm.Graph, detectOpts(ec, cfg, seed)...)
	if err != nil {
		return 0, err
	}
	truth := ppm.TruthCommunities()
	drs := make([]metrics.DetectionResult, 0, len(res.Detections))
	for _, det := range res.Detections {
		drs = append(drs, metrics.DetectionResult{
			Detected: det.Raw,
			Truth:    truth[ppm.Truth[det.Stats.Seed]],
		})
	}
	return metrics.TotalFScore(drs)
}

// averageFScore averages cdrwFScore over ec.Trials independent samples.
func averageFScore(ec Config, cfg gen.PPMConfig, base uint64) (float64, error) {
	sum := 0.0
	for t := 0; t < ec.Trials; t++ {
		f, err := cdrwFScore(ec, cfg, base+uint64(t)*7919)
		if err != nil {
			return 0, fmt.Errorf("trial %d: %w", t, err)
		}
		sum += f
	}
	return sum / float64(ec.Trials), nil
}
