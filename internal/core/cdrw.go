// Package core implements CDRW (Community Detection by Random Walks),
// Algorithm 1 of Fathi, Molla & Pandurangan, "Efficient Distributed
// Community Detection in the Stochastic Block Model" (ICDCS 2019).
//
// This package is the reference engine: it evolves the walk's probability
// distribution exactly (as the paper's own simulations do) and runs the
// largest-mixing-set search in memory. The CONGEST message-passing
// realisation of the same algorithm lives in internal/congest and is
// cross-checked against this one.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"cdrw/internal/congest"
	"cdrw/internal/graph"
	"cdrw/internal/rw"
	"cdrw/internal/trace"
)

// DefaultDelta is the stop-rule slack used when the caller supplies no
// conductance estimate: the algorithm stops once the largest mixing set
// grows by less than a factor (1+δ) per step. The paper sets δ = Φ_G; for
// PPM inputs use gen.PPMConfig.ExpectedConductance. 0.1 is a conservative
// stand-in that works across the paper's parameter grid because the
// pre-convergence growth rate is Θ(d) = Θ(log n) per step, far above 1+δ.
const DefaultDelta = 0.1

type config struct {
	delta      float64
	minSize    int
	maxLen     int
	patience   int
	seed       uint64
	mix        rw.MixOptions
	denseSweep bool
	observer   func(StepTiming)

	// Unified-surface fields (see options.go).
	engine       Engine
	communities  int             // parallel engine's r estimate (0 = unset)
	workers      int             // congest per-round parallelism
	treeDepth    int             // congest BFS depth limit (negative = unbounded)
	congestBatch int             // congest batched-pool size (≤ 1 = sequential)
	detObs       func(Detection) // WithDetectionObserver streaming callback
	shared       *rw.SharedIndex // WithSharedIndex injection (nil = private)

	// transport is WithCongestTransport's pluggable flood-round transport,
	// installed on the CONGEST network (nil = in-memory kernels).
	transport congest.FloodTransport

	// tr is the run's request trace, looked up from the context at
	// beginRun (nil = untraced). Like observer and transport it never
	// enters Settings or fingerprints: it cannot change results, only
	// attribute their time.
	tr *trace.Trace
}

// Option customises a CDRW run.
type Option func(*config)

// WithDelta sets the stop parameter δ of Algorithm 1 line 18 (paper: the
// graph conductance Φ_G).
func WithDelta(delta float64) Option {
	return func(c *config) { c.delta = delta }
}

// WithMinCommunitySize sets R, the initial candidate mixing-set size
// (Algorithm 1 line 6; the paper assumes communities have size ≥ log n and
// initialises R = log n).
func WithMinCommunitySize(r int) Option {
	return func(c *config) { c.minSize = r }
}

// WithMaxWalkLength caps the walk length (Algorithm 1 line 8 runs for
// O(log n) steps; the default is 4·⌈log₂ n⌉+4).
func WithMaxWalkLength(l int) Option {
	return func(c *config) { c.maxLen = l }
}

// WithPatience sets how many consecutive stalled steps trigger the stop rule
// (the paper stops at the first step whose mixing set fails to grow by
// (1+δ); patience 1 reproduces that; larger values tolerate transient
// plateaus before the community is reached).
func WithPatience(p int) Option {
	return func(c *config) { c.patience = p }
}

// WithSeed fixes the RNG seed used for pool sampling, making a Detect run
// fully reproducible.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithMixingThreshold overrides the 1/2e mixing-condition bound (ablation
// studies only; the default is the paper's constant).
func WithMixingThreshold(threshold float64) Option {
	return func(c *config) { c.mix.Threshold = threshold }
}

// WithGrowthFactor overrides the 1+1/8e candidate-size growth factor
// (ablation studies only; the default is the paper's constant).
func WithGrowthFactor(growth float64) Option {
	return func(c *config) { c.mix.Growth = growth }
}

// WithDenseSweep forces the reference O(n·ladder) dense mixing-set sweep on
// every step instead of the sparse-aware engine sweep. The two produce
// bit-identical communities; this option exists as a benchmark baseline and
// a cross-check, exactly like WalkEngine.SetDenseThreshold(0) for the walk
// kernel.
func WithDenseSweep() Option {
	return func(c *config) { c.denseSweep = true }
}

// StepTiming is one walk step's diagnostics as seen by a WithStepObserver
// callback: which seed, which step, the support size (-1 once the engine's
// dense kernel has taken over), whether the mixing-set sweep took the sparse
// fast path, and the wall time of the step and of the sweep.
type StepTiming struct {
	// Seed is the walk's source vertex.
	Seed int
	// Step is the walk length after this step (1-based).
	Step int
	// Support is the walk's support size, or -1 in the dense regime.
	Support int
	// SparseSweep reports whether the mixing-set sweep ran its sparse
	// O(support)-per-size path (false: the dense O(n)-per-size reference).
	SparseSweep bool
	// StepNS and SweepNS are the durations of the walk step and of the
	// whole candidate-size sweep, in nanoseconds.
	StepNS, SweepNS int64
}

// WithStepObserver registers fn to receive per-step timing and sweep-mode
// diagnostics from every detection walk. DetectParallel invokes fn from one
// goroutine per live walk, so fn must be safe for concurrent use. Timing is
// only measured when an observer is installed; the default hot path takes
// no clock readings.
func WithStepObserver(fn func(StepTiming)) Option {
	return func(c *config) { c.observer = fn }
}

func defaultConfig(n int) config {
	logN := int(math.Ceil(math.Log2(float64(n + 1))))
	if logN < 1 {
		logN = 1
	}
	return config{
		delta:        DefaultDelta,
		minSize:      logN,
		maxLen:       4*logN + 4,
		patience:     1,
		seed:         1,
		engine:       EngineReference,
		workers:      1,
		treeDepth:    -1,
		congestBatch: 1,
	}
}

// CommunityStats records per-seed diagnostics of a community computation.
type CommunityStats struct {
	Seed         int  // seed vertex s
	WalkLength   int  // steps taken before the stop rule fired
	Stopped      bool // true if the (1+δ) rule fired, false if the length cap hit
	FinalSetSize int  // |C_s|
	SizesChecked int  // total ladder entries evaluated (complexity accounting)
	// FrozenAt is the walk length at which the output mixing set was last
	// recorded — the l of the final S_l that became the community (before
	// seed re-insertion). 0 when no mixing set was ever found (singleton
	// fallback). The deterministic walk makes this replayable:
	// Detector.ReverifyCommunity re-walks to FrozenAt and re-runs just that
	// one sweep to check a cached community against a mutated graph.
	FrozenAt int
}

// Detection records one pool iteration of Algorithm 1: the seed drawn from
// the pool, the community detected for it on the full graph, and the subset
// of that community that was still unassigned (which is what leaves the
// pool).
type Detection struct {
	// Raw is the community C_s exactly as Algorithm 1 computes it for the
	// seed. The paper's F-score (§IV) is evaluated on this set. Raw sets of
	// different seeds may overlap.
	Raw []int
	// Assigned is Raw minus vertices claimed by earlier detections (plus
	// the seed itself, which is always unassigned when drawn). The Assigned
	// sets partition the vertex set.
	Assigned []int
	// Stats holds per-run diagnostics.
	Stats CommunityStats
}

// Result is the output of a full Detect run.
type Result struct {
	// Detections in pool order. Every vertex appears in exactly one
	// Assigned set.
	Detections []Detection
}

// Partition returns the Assigned sets: a partition of the vertex set.
func (r *Result) Partition() [][]int {
	out := make([][]int, len(r.Detections))
	for i := range r.Detections {
		out[i] = r.Detections[i].Assigned
	}
	return out
}

// Labels returns a per-vertex community label derived from the partition.
func (r *Result) Labels(n int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	for id, det := range r.Detections {
		for _, v := range det.Assigned {
			labels[v] = id
		}
	}
	return labels
}

func (c *config) validate(n int) error {
	if math.IsNaN(c.delta) || math.IsNaN(c.mix.Threshold) || math.IsNaN(c.mix.Growth) {
		return fmt.Errorf("core: options must not be NaN (delta=%v mixingThreshold=%v growthFactor=%v)",
			c.delta, c.mix.Threshold, c.mix.Growth)
	}
	if c.delta < 0 {
		return fmt.Errorf("core: negative delta %v", c.delta)
	}
	if c.minSize < 1 || c.maxLen < 1 || c.patience < 1 {
		return fmt.Errorf("core: options must be positive (minSize=%d maxLen=%d patience=%d)",
			c.minSize, c.maxLen, c.patience)
	}
	switch c.engine {
	case EngineReference, EngineCongest:
	case EngineParallel:
		if c.communities < 1 {
			return fmt.Errorf("core: community estimate r=%d must be positive", c.communities)
		}
		if c.communities > n {
			return fmt.Errorf("core: r=%d exceeds vertex count %d", c.communities, n)
		}
	default:
		return fmt.Errorf("core: unknown engine %v", c.engine)
	}
	if c.workers < 1 {
		return fmt.Errorf("core: congest workers %d must be positive", c.workers)
	}
	if c.congestBatch < 0 {
		return fmt.Errorf("core: negative congest batch size %d", c.congestBatch)
	}
	return nil
}

// communityTracker applies the Algorithm 1 stop rule (lines 18–20) to the
// stream of per-length mixing sets of one seed's walk. It is the single
// home of the stop logic: DetectCommunity feeds it from a solo WalkEngine
// and DetectParallel from a BatchWalkEngine, so the two paths cannot drift.
//
// The tracker copies every mixing set it retains into its own reused
// buffers. That decouples it from the sweeper's scratch storage (whose
// Vertices alias is only valid until the next sweep) and is what lets a
// reusable Detector run detection after detection without allocating: reset
// rewinds the buffers instead of dropping them.
type communityTracker struct {
	cfg       *config
	stats     CommunityStats
	prev      []int // copy of the last passing mixing set, reused across runs
	prevFound bool
	stalled   int
	done      bool
	outSet    []int // finalised community, reused across runs
}

func newCommunityTracker(cfg *config, seed int) *communityTracker {
	t := &communityTracker{}
	t.reset(cfg, seed)
	return t
}

// reset rewinds the tracker for a fresh seed, keeping its buffers. The
// previous run's outSet becomes invalid — callers that retain a community
// across runs must have copied it.
func (t *communityTracker) reset(cfg *config, seed int) {
	t.cfg = cfg
	t.stats = CommunityStats{Seed: seed}
	t.prev = t.prev[:0]
	t.prevFound = false
	t.stalled = 0
	t.done = false
	t.outSet = t.outSet[:0]
}

// observe records the largest mixing set found after walk step l and returns
// true when the stop rule fires. The rule compares consecutive *existing*
// mixing sets. While the walk is still spreading, no candidate size passes
// the mixing condition at all (the ball outgrows the last passing size
// before the next ladder size becomes reachable); those steps are part of
// the growth phase, not a stall, so they are skipped rather than counted
// against the (1+δ) rule.
func (t *communityTracker) observe(l int, cur rw.MixingSet) bool {
	t.stats.WalkLength = l
	t.stats.SizesChecked += cur.SizesChecked
	if t.prevFound && cur.Found() {
		grown := float64(cur.Size()) >= (1+t.cfg.delta)*float64(len(t.prev))
		if !grown {
			t.stalled++
			if t.stalled >= t.cfg.patience {
				// Output S_{ℓ-1}, the last set before the stall run began
				// (Algorithm 1 line 20).
				t.settle(true)
				return true
			}
			// Keep prev (the pre-stall set) while waiting out the plateau.
			return false
		}
		t.stalled = 0
	}
	if cur.Found() {
		t.prev = append(t.prev[:0], cur.Vertices...)
		t.prevFound = true
		t.stats.FrozenAt = l
	}
	return false
}

// settle finalises the community, either because the stop rule fired
// (stopped) or because the walk-length cap was reached. With no mixing set
// at any length (pathological inputs: tiny graphs, isolated vertices) it
// falls back to the singleton community {s}. At the cap, FinalSetSize
// reports the mixing set's size before the seed is re-inserted, matching
// the reference engine's historical accounting.
func (t *communityTracker) settle(stopped bool) {
	t.done = true
	t.stats.Stopped = stopped
	if !t.prevFound {
		t.outSet = append(t.outSet[:0], t.stats.Seed)
		t.stats.FinalSetSize = 1
		return
	}
	t.outSet = withSeedInto(t.outSet[:0], t.prev, t.stats.Seed)
	if stopped {
		t.stats.FinalSetSize = len(t.outSet)
	} else {
		t.stats.FinalSetSize = len(t.prev)
	}
}

// DetectCommunity computes the community containing seed s: it walks from s,
// tracks the largest local mixing set at every length, and stops when the
// set's size stalls (Algorithm 1 lines 5–20). The walk runs on the hybrid
// sparse/dense engine of internal/rw, so the early steps — where the
// distribution is a small ball around s — cost only the support size.
//
// It is a thin wrapper over NewDetector + Detector.DetectCommunity with a
// background context; repeat callers on one graph should hold a Detector
// instead (engines and sweep buffers are then reused across calls).
func DetectCommunity(g *graph.Graph, s int, opts ...Option) ([]int, CommunityStats, error) {
	return DetectCommunityContext(context.Background(), g, s, opts...)
}

// DetectCommunityContext is DetectCommunity with cancellation: ctx is
// polled between walk steps and between ladder sizes of every sweep.
func DetectCommunityContext(ctx context.Context, g *graph.Graph, s int, opts ...Option) ([]int, CommunityStats, error) {
	d, err := NewDetector(g, opts...)
	if err != nil {
		return nil, CommunityStats{}, err
	}
	return d.DetectCommunity(ctx, s)
}

// sweep runs one mixing-set search over the engine's current distribution:
// the engine's hybrid sparse/dense sweep by default, or the dense reference
// when WithDenseSweep was given. Both return bit-identical results, and
// both run over the engine's retained sweeper buffers, so repeat serving is
// allocation-free whichever path a step takes. Only ladder sizes ≥ from are
// evaluated (rw.WalkEngine.LargestMixingSetFrom); detection passes 0, the
// full ladder.
func (c *config) sweep(eng *rw.WalkEngine, from int) (rw.MixingSet, error) {
	return eng.LargestMixingSetFrom(c.minSize, from, c.denseSweep, c.mix)
}

// detectCommunity is the engine-level detection loop shared by
// Detector.DetectCommunity and the pool loop, both of which reuse one
// WalkEngine and one tracker across all their seeds instead of reallocating
// per seed. ctx is polled once per walk step; the sweep additionally polls
// cfg.mix.Interrupt between ladder sizes. The returned community slice is
// the tracker's buffer: valid until the tracker's next reset.
func detectCommunity(ctx context.Context, eng *rw.WalkEngine, trk *communityTracker, s int, cfg *config) ([]int, CommunityStats, error) {
	if err := eng.Reset(s); err != nil {
		return nil, CommunityStats{Seed: s}, err
	}
	trk.reset(cfg, s)
	for l := 1; l <= cfg.maxLen; l++ {
		if err := ctx.Err(); err != nil {
			return nil, trk.stats, err
		}
		timed := cfg.observer != nil || cfg.tr != nil
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		eng.Step()
		var t1 time.Time
		if timed {
			t1 = time.Now()
		}
		cur, err := cfg.sweep(eng, 0)
		if err != nil {
			return nil, trk.stats, err
		}
		if timed {
			sweepNS := time.Since(t1).Nanoseconds()
			cfg.tr.AddPhase(trace.PhaseWalk, t1.Sub(t0))
			cfg.tr.AddPhase(trace.PhaseSweep, time.Duration(sweepNS))
			if cfg.observer != nil {
				cfg.observer(StepTiming{
					Seed:        s,
					Step:        l,
					Support:     eng.SupportSize(),
					SparseSweep: eng.Sparse() && !cfg.denseSweep,
					StepNS:      t1.Sub(t0).Nanoseconds(),
					SweepNS:     sweepNS,
				})
			}
		}
		if trk.observe(l, cur) {
			return trk.outSet, trk.stats, nil
		}
	}
	// Length cap reached without the stop rule firing: emit the best set so
	// far. A seed in a well-mixed graph ends up here with S = V.
	trk.settle(false)
	return trk.outSet, trk.stats, nil
}

// withSeedInto appends set to dst with the seed vertex inserted at its
// sorted position (unless already present): the paper defines C_s as a set
// containing s (Definition 2 takes the minimum over sets containing the
// source), but the localised |S|-smallest-x_u selection can drop the seed
// when its own probability still deviates from the restricted stationary
// value. dst must not alias set.
func withSeedInto(dst, set []int, s int) []int {
	i := sort.SearchInts(set, s)
	dst = append(dst, set[:i]...)
	if i >= len(set) || set[i] != s {
		dst = append(dst, s)
	}
	dst = append(dst, set[i:]...)
	return dst
}

// Detect runs CDRW over the whole graph: repeatedly draw a seed from the
// pool of unassigned vertices, detect its community, and remove the
// community from the pool (Algorithm 1 lines 1–23). Vertices claimed by an
// earlier community are not re-assigned, so the output is a partition.
//
// It is a thin wrapper over NewDetector + Detector.Detect with a background
// context, and honours the unified option surface — WithEngine selects the
// backend (reference by default), with results byte-identical to the
// pre-Detector entry points for fixed seeds.
func Detect(g *graph.Graph, opts ...Option) (*Result, error) {
	return DetectContext(context.Background(), g, opts...)
}

// DetectContext is Detect with cancellation: ctx is polled between pool
// iterations, between walk steps and between ladder sizes on every engine.
func DetectContext(ctx context.Context, g *graph.Graph, opts ...Option) (*Result, error) {
	d, err := NewDetector(g, opts...)
	if err != nil {
		return nil, err
	}
	return d.Detect(ctx)
}
