package congest

import (
	"context"
	"fmt"
	"math"
	"sort"

	"cdrw/internal/rw"
	"cdrw/internal/seedpool"
)

// Config parameterises a distributed CDRW run. The zero value is not valid;
// start from DefaultConfig. Every knob of the unified Detector option set
// (internal/core) translates losslessly into this struct; core.Settings.
// CongestConfig performs that translation.
type Config struct {
	// Delta is the stop-rule slack δ (paper: the graph conductance Φ_G).
	Delta float64
	// MinCommunitySize is R, the first candidate mixing-set size.
	MinCommunitySize int
	// MaxWalkLength caps the random-walk length.
	MaxWalkLength int
	// Patience is the number of consecutive stalled steps that trigger the
	// stop rule (1 = the paper's rule).
	Patience int
	// Seed drives pool sampling in Detect.
	Seed uint64
	// Workers sets the per-round parallelism of node-local computation.
	Workers int
	// TreeDepthLimit bounds the BFS tree depth; negative means unbounded
	// (cover the seed's whole component). The paper uses depth O(log n),
	// which covers the graph when it is connected with logarithmic
	// diameter (true for the PPM regime p = Ω(log n / n)).
	TreeDepthLimit int
	// MixingThreshold overrides the 1/2e mixing-condition bound; values
	// ≤ 0 select the paper's constant (ablations only, mirrors the core
	// engine's WithMixingThreshold).
	MixingThreshold float64
	// GrowthFactor overrides the 1+1/8e candidate-size ladder growth;
	// values ≤ 1 select the paper's constant.
	GrowthFactor float64
	// Batch is the number of seed walks Detect advances in shared
	// communication rounds per pool super-step (values ≤ 1 draw one seed per
	// super-step, matching internal/core's seed sampling). Batching never
	// changes the detected communities or any per-walk statistic — each
	// walk's protocol, including its own round/message cost, is bit-identical
	// to running it alone — it only lets independent walks share rounds (and
	// speculate ahead of the pool), so Result.Metrics.Rounds drops while
	// total messages may grow by the speculative walks that end up unused.
	Batch int
}

// mixResolved returns the effective mixing threshold and ladder growth,
// falling back to the paper's constants exactly like rw.MixOptions does.
func (c Config) mixResolved() (threshold, growth float64) {
	threshold = c.MixingThreshold
	if threshold <= 0 {
		threshold = rw.MixingThreshold
	}
	growth = c.GrowthFactor
	if growth <= 1 {
		growth = rw.GrowthFactor
	}
	return threshold, growth
}

// DefaultConfig mirrors internal/core's defaults so that the two engines
// produce identical communities on the same input.
func DefaultConfig(n int) Config {
	logN := int(math.Ceil(math.Log2(float64(n + 1))))
	if logN < 1 {
		logN = 1
	}
	return Config{
		Delta:            0.1,
		MinCommunitySize: logN,
		MaxWalkLength:    4*logN + 4,
		Patience:         1,
		Seed:             1,
		Workers:          1,
		TreeDepthLimit:   -1,
		Batch:            1,
	}
}

func (c Config) validate() error {
	if math.IsNaN(c.Delta) || math.IsNaN(c.MixingThreshold) || math.IsNaN(c.GrowthFactor) {
		return fmt.Errorf("congest: config must not be NaN (delta=%v mixingThreshold=%v growthFactor=%v)",
			c.Delta, c.MixingThreshold, c.GrowthFactor)
	}
	if c.Delta < 0 {
		return fmt.Errorf("congest: negative delta %v", c.Delta)
	}
	if c.MinCommunitySize < 1 || c.MaxWalkLength < 1 || c.Patience < 1 {
		return fmt.Errorf("congest: config must be positive (minSize=%d maxLen=%d patience=%d)",
			c.MinCommunitySize, c.MaxWalkLength, c.Patience)
	}
	if c.Batch < 0 {
		return fmt.Errorf("congest: negative batch size %d", c.Batch)
	}
	return nil
}

// CommunityStats mirrors core.CommunityStats with CONGEST cost counters.
type CommunityStats struct {
	Seed         int
	WalkLength   int
	Stopped      bool
	FinalSetSize int
	// SizesChecked counts ladder entries evaluated, matching the reference
	// engine's accounting (both engines sweep the whole ladder per step).
	SizesChecked int
	// FrozenAt is the walk length of the final recorded mixing set (0 for
	// the singleton fallback), mirroring core.CommunityStats.FrozenAt — the
	// cross-engine equivalence suites compare stats structs wholesale, so
	// the field must advance identically here and in the reference tracker.
	FrozenAt  int
	TreeDepth int
	Metrics   Metrics // rounds/messages consumed by this community
}

// DetectCommunity runs the distributed Algorithm 1 for one seed: build the
// BFS tree, evolve the walk distribution by per-round flooding, search the
// largest local mixing set at every length via distributed binary search,
// and stop when the set size stalls. It returns the community (sorted) and
// cost statistics.
func DetectCommunity(nw *Network, s int, cfg Config) ([]int, CommunityStats, error) {
	return DetectCommunityContext(context.Background(), nw, s, cfg)
}

// DetectCommunityContext is DetectCommunity with cancellation: the network's
// round scheduler polls ctx, so a cancelled or expired context unwinds the
// run within O(1) rounds (mid-ladder, mid-binary-search) and returns
// ctx.Err(). Rounds simulated before the cancellation remain accounted in
// the network's metrics.
//
// A single seed runs as a batch of one walk through DetectBatch's loop; with
// one lane, the walk's own rounds are the network's rounds.
func DetectCommunityContext(ctx context.Context, nw *Network, s int, cfg Config) ([]int, CommunityStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, CommunityStats{}, err
	}
	if err := nw.checkVertex(s); err != nil {
		return nil, CommunityStats{}, err
	}
	nw.setContext(ctx)
	defer nw.setContext(nil)
	dets, err := detectBatch(nw, []int{s}, cfg)
	if err != nil {
		return nil, CommunityStats{Seed: s}, err
	}
	return dets[0].Community, dets[0].Stats, nil
}

// largestMixingSet runs the candidate-size sweep of Algorithm 1 lines 12–17
// over the tree-covered nodes and returns the largest set satisfying the
// mixing condition, or nil. Membership is materialised by one extra
// broadcast of the winning threshold key, after which every node knows
// locally whether it belongs to S_ℓ.
// The per-node x_u computation is rw.XValueAt — the exact function the
// reference engine sweeps with — and the per-size sum is the canonical
// rw.MixingSum, so the two engines share one definition of the statistic;
// this simulator only owns the tree selection and the round/message
// accounting around it. When the tree covers the whole graph, each size's
// distributed selection runs on the degree-indexed fast path
// (selectKSmallestIndexed): off-support nodes answer the root's broadcasts
// from their degree alone, so a size costs O(support + log²n) simulator work
// per binary-search iteration instead of a scan over every covered node.
// A cancelled run context aborts the sweep between ladder sizes with the
// context's error.
func (nw *Network) largestMixingSet(tree *Tree, covered []int32, p rw.Dist, x []float64, ladder []int, mixThreshold float64) ([]int, error) {
	g := nw.Graph()
	n := g.NumVertices()
	var (
		bestThreshold key
		bestSize      int
		found         bool
		bestX         = math.NaN() // µ' of winning size, for re-deriving x
	)
	indexed := n > 0 && len(covered) == n
	if indexed {
		nw.support = nw.support[:0]
		for v := 0; v < n; v++ {
			if p[v] != 0 {
				nw.support = append(nw.support, int32(v))
			}
		}
		nw.off.Reset(nw.degreeIndex(), nw.support)
	}
	for _, size := range ladder {
		if err := nw.interrupted(); err != nil {
			return nil, err
		}
		muPrime := rw.MuPrime(g, size)
		var (
			threshold key
			sum       float64
			ok        bool
		)
		if indexed && muPrime > 0 {
			nw.off.SetMu(muPrime)
			xs := nw.xsup[:0]
			for _, v := range nw.support {
				xs = append(xs, rw.XValueAt(g, p, int(v), size, muPrime))
			}
			nw.xsup = xs
			threshold, sum, ok = nw.selectKSmallestIndexed(tree, nw.support, xs, &nw.off, muPrime, size)
		} else {
			nw.parallelFor(n, func(u int) {
				x[u] = rw.XValueAt(g, p, u, size, muPrime)
			})
			threshold, _, ok = nw.selectKSmallest(tree, covered, x, size)
			if ok {
				sum = canonicalCoveredSum(g, p, covered, x, threshold, muPrime, size)
			}
		}
		if ok && sum < mixThreshold {
			bestThreshold = threshold
			bestSize = size
			bestX = muPrime
			found = true
		}
	}
	if err := nw.interrupted(); err != nil {
		return nil, err
	}
	if !found {
		return nil, nil
	}
	// Materialise membership: the root broadcasts the winning (size,
	// threshold); every covered node recomputes its x for that size and
	// compares. One broadcast round-trip.
	nw.Broadcast(tree)
	set := make([]int, 0, bestSize)
	for _, v := range covered {
		k := key{x: rw.XValueAt(g, p, int(v), bestSize, bestX), id: v}
		if keyLess(k, bestThreshold) || k == bestThreshold {
			set = append(set, int(v))
		}
	}
	return set, nil
}

// withSeed inserts s into the sorted set if missing (the paper's community
// C_s contains s by definition).
func withSeed(set []int, s int) []int {
	i := sort.SearchInts(set, s)
	if i < len(set) && set[i] == s {
		return set
	}
	out := make([]int, 0, len(set)+1)
	out = append(out, set[:i]...)
	out = append(out, s)
	out = append(out, set[i:]...)
	return out
}

// Detection mirrors core.Detection for the distributed engine.
type Detection struct {
	Raw      []int
	Assigned []int
	Stats    CommunityStats
}

// Result is the output of a full distributed Detect run.
type Result struct {
	Detections []Detection
	// Metrics aggregates rounds/messages over all detections.
	Metrics Metrics
}

// Partition returns the Assigned sets.
func (r *Result) Partition() [][]int {
	out := make([][]int, len(r.Detections))
	for i := range r.Detections {
		out[i] = r.Detections[i].Assigned
	}
	return out
}

// Detect runs the distributed CDRW pool loop (Algorithm 1 lines 1–23),
// detecting communities until every vertex is assigned. The loop is
// seedpool.Run, the one every engine shares, so with cfg.Batch ≤ 1 it draws
// the same seeds as internal/core's Detector from the same cfg.Seed and, on
// a connected graph, the two engines emit identical communities. With
// cfg.Batch > 1 each super-step advances a batch of seed walks in shared
// communication rounds (see DetectBatch): Batch communities leave the pool
// per super-step instead of one, so the total round count drops by up to
// the batch factor, while seeds that land in one community cost some
// duplicated messages. Every detection's community and per-walk stats stay
// bit-identical to a lone DetectCommunity of its seed.
func Detect(nw *Network, cfg Config) (*Result, error) {
	return DetectContext(context.Background(), nw, cfg)
}

// DetectContext is Detect with cancellation: ctx is polled by the round
// scheduler and between pool super-steps, so a cancelled caller gets
// ctx.Err() back without waiting for the pool to drain.
func DetectContext(ctx context.Context, nw *Network, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nw.setContext(ctx)
	defer nw.setContext(nil)
	res := &Result{}
	before := nw.Metrics()
	var sc seedpool.Scratch
	err := seedpool.Run(ctx, nw.Graph(), seedpool.Config{Seed: cfg.Seed, Batch: cfg.Batch, MinSize: cfg.MinCommunitySize}, &sc,
		func(seeds []int) ([]seedpool.Found[CommunityStats], error) {
			dets, err := detectBatch(nw, seeds, cfg)
			if err != nil {
				return nil, fmt.Errorf("batch of seeds %v: %w", seeds, err)
			}
			found := make([]seedpool.Found[CommunityStats], len(dets))
			for i, det := range dets {
				found[i] = seedpool.Found[CommunityStats](det)
			}
			return found, nil
		},
		func(det seedpool.Detection[CommunityStats]) bool {
			res.Detections = append(res.Detections, Detection(det))
			return true
		})
	if err != nil {
		return nil, fmt.Errorf("congest: %w", err)
	}
	res.Metrics = nw.Metrics()
	res.Metrics.Rounds -= before.Rounds
	res.Metrics.Messages -= before.Messages
	return res, nil
}
