package serve

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"cdrw/internal/core"
	"cdrw/internal/graph"
	"cdrw/internal/metrics"
)

// TestApplyDeltaEmptyNoOp: an empty delta is a total no-op — no generation
// bump, no invalidation, no pool churn, no mutation counters.
func TestApplyDeltaEmptyNoOp(t *testing.T) {
	ppm := testPPM(t, 256, 2)
	m := metrics.NewServeMetrics()
	reg := NewRegistry(2, m)
	ctx := context.Background()
	if err := reg.Register("g", ppm.Graph, core.WithDelta(ppm.Config.ExpectedConductance())); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := reg.Detect(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := reg.DetectCommunity(ctx, "g", 0); err != nil {
		t.Fatal(err)
	}
	reg.mu.Lock()
	entryBefore := reg.entries["g"]
	poolsBefore := len(entryBefore.pools)
	orderBefore := len(reg.order)
	reg.mu.Unlock()

	st, err := reg.ApplyDelta(ctx, "g", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st != (DeltaStats{Generation: entryBefore.gen}) {
		t.Fatalf("empty delta returned %+v, want bare generation", st)
	}
	reg.mu.Lock()
	sameEntry := reg.entries["g"] == entryBefore
	samePools := len(reg.entries["g"].pools) == poolsBefore
	sameOrder := len(reg.order) == orderBefore
	reg.mu.Unlock()
	if !sameEntry || !samePools || !sameOrder {
		t.Fatalf("empty delta mutated registry state (entry %v pools %v order %v)",
			sameEntry, samePools, sameOrder)
	}
	if _, _, cached, err := reg.Detect(ctx, "g"); err != nil || !cached {
		t.Fatalf("Detect after empty delta: cached=%v err=%v, want cache hit", cached, err)
	}
	if _, _, cached, err := reg.DetectCommunity(ctx, "g", 0); err != nil || !cached {
		t.Fatalf("DetectCommunity after empty delta: cached=%v err=%v, want cache hit", cached, err)
	}
	if s := m.Snapshot(); s.DeltasApplied != 0 || s.SwapCount != 0 {
		t.Fatalf("empty delta counted as applied: %+v", s)
	}
}

// deltaTarget finds a seed outside avoid whose community holds a
// non-adjacent vertex pair also outside avoid — a mutation site guaranteed
// to intersect that seed's cache line and miss avoid's.
func deltaTarget(t *testing.T, reg *Registry, name string, avoid []int) (seed int, comm []int, u, v int) {
	t.Helper()
	in := make(map[int]bool, len(avoid))
	for _, w := range avoid {
		in[w] = true
	}
	g, _ := reg.Graph(name)
	for s := g.NumVertices() - 1; s >= 0; s-- {
		if in[s] {
			continue
		}
		c, _, _, err := reg.DetectCommunity(context.Background(), name, s)
		if err != nil {
			t.Fatal(err)
		}
		var outside []int
		for _, w := range c {
			if !in[w] {
				outside = append(outside, w)
			}
		}
		for i := 0; i < len(outside); i++ {
			for j := i + 1; j < len(outside); j++ {
				if !g.HasEdge(outside[i], outside[j]) {
					return s, append([]int(nil), c...), outside[i], outside[j]
				}
			}
		}
	}
	t.Fatal("no mutation site disjoint from the first community")
	return 0, nil, 0, 0
}

// TestApplyDeltaCacheRetention: across a delta, the full-run line is
// evicted, a disjoint single-seed line survives as a cache hit with the
// identical answer, and an intersecting line is either promoted unchanged
// (re-verification) or recomputed to exactly what a fresh detector on the
// mutated graph returns.
func TestApplyDeltaCacheRetention(t *testing.T) {
	ppm := testPPM(t, 512, 4)
	m := metrics.NewServeMetrics()
	reg := NewRegistry(2, m)
	ctx := context.Background()
	deltaOpt := core.WithDelta(ppm.Config.ExpectedConductance())
	if err := reg.Register("g", ppm.Graph, deltaOpt); err != nil {
		t.Fatal(err)
	}

	seedA := 0
	commA, statsA, _, err := reg.DetectCommunity(ctx, "g", seedA)
	if err != nil {
		t.Fatal(err)
	}
	commA = append([]int(nil), commA...)
	seedB, commB, du, dv := deltaTarget(t, reg, "g", commA)
	if _, _, _, err := reg.Detect(ctx, "g"); err != nil {
		t.Fatal(err)
	}

	// One edge added inside commB between endpoints outside commA: the delta
	// intersects the seedB line and misses the seedA line.
	adds := []graph.Edge{{U: du, V: dv}}
	st, err := reg.ApplyDelta(ctx, "g", adds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != 1 || st.Added != 1 || st.Removed != 0 {
		t.Fatalf("delta stats %+v, want generation 1 with 1 add", st)
	}
	// Lines going in: commA (disjoint from the delta), commB (intersecting),
	// one full-run line (always evicted), plus any lines probed by
	// deltaTarget — each kept, promoted or evicted on its own merits.
	if st.Kept < 1 {
		t.Fatalf("delta stats %+v: the disjoint seedA line was not kept", st)
	}
	if st.Evicted < 1 {
		t.Fatalf("delta stats %+v: the full-run line was not evicted", st)
	}

	// The disjoint line survives as a cache hit with the identical answer.
	gotA, gotStatsA, cached, err := reg.DetectCommunity(ctx, "g", seedA)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("disjoint seedA line did not survive the delta as a cache hit")
	}
	if !reflect.DeepEqual(gotA, commA) || gotStatsA != statsA {
		t.Fatal("kept seedA line changed across the delta")
	}

	// The full-run line is gone.
	if _, _, cached, err := reg.Detect(ctx, "g"); err != nil || cached {
		t.Fatalf("full-run line survived the delta (cached=%v err=%v)", cached, err)
	}

	// The intersecting line either promoted unchanged or recomputes to the
	// fresh answer on the mutated graph.
	mutated, _ := reg.Graph("g")
	gotB, _, cachedB, err := reg.DetectCommunity(ctx, "g", seedB)
	if err != nil {
		t.Fatal(err)
	}
	if cachedB {
		if !reflect.DeepEqual(gotB, commB) {
			t.Fatal("promoted seedB line differs from its cached community")
		}
	} else {
		d, err := core.NewDetector(mutated, deltaOpt)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _, err := d.DetectCommunity(ctx, seedB)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotB, fresh) {
			t.Fatal("recomputed seedB answer differs from a fresh detector on the mutated graph")
		}
	}

	if s := m.Snapshot(); s.DeltasApplied != 1 || s.SwapCount != 1 ||
		s.DeltaLinesKept != int64(st.Kept) || s.DeltaLinesEvicted != int64(st.Evicted) ||
		s.DeltaLinesReverified != int64(st.Reverified) {
		t.Fatalf("mutation counters %+v do not match delta stats %+v", s, st)
	}

	// A bad delta leaves everything untouched.
	if _, err := reg.ApplyDelta(ctx, "g", adds[:1], nil); err == nil {
		t.Fatal("re-adding a present edge did not error")
	}
	if g2, _ := reg.Graph("g"); g2 != mutated {
		t.Fatal("failed delta swapped the graph")
	}
	if _, _, cached, err := reg.DetectCommunity(ctx, "g", seedA); err != nil || !cached {
		t.Fatalf("failed delta invalidated the cache (cached=%v err=%v)", cached, err)
	}
}

// TestApplyDeltaConcurrentWithDetect: deltas swap generations while detect
// traffic runs full tilt; run under -race this pins down the
// double-buffering — readers always see a complete generation, never a
// half-built one.
func TestApplyDeltaConcurrentWithDetect(t *testing.T) {
	ppm := testPPM(t, 256, 2)
	reg := NewRegistry(2, nil)
	ctx := context.Background()
	if err := reg.Register("g", ppm.Graph, core.WithDelta(ppm.Config.ExpectedConductance())); err != nil {
		t.Fatal(err)
	}

	// A non-edge to flip on and off.
	u, v := -1, -1
	n := ppm.Graph.NumVertices()
findPair:
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !ppm.Graph.HasEdge(a, b) {
				u, v = a, b
				break findPair
			}
		}
	}
	if u < 0 {
		t.Fatal("graph is complete; no edge to add")
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, _, _, err := reg.Detect(ctx, "g"); err != nil {
					errc <- err
					return
				}
				if _, _, _, err := reg.DetectCommunity(ctx, "g", (w*5+i)%n); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}

	const flips = 6
	for i := 0; i < flips; i++ {
		var st DeltaStats
		var err error
		if i%2 == 0 {
			st, err = reg.ApplyDelta(ctx, "g", []graph.Edge{{U: u, V: v}}, nil)
		} else {
			st, err = reg.ApplyDelta(ctx, "g", nil, []graph.Edge{{U: u, V: v}})
		}
		if err != nil {
			t.Fatal(err)
		}
		if st.Generation != i+1 {
			t.Fatalf("flip %d landed on generation %d", i, st.Generation)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("concurrent request failed: %v", err)
	}

	g, _ := reg.Graph("g")
	if g.HasEdge(u, v) != (flips%2 == 1) {
		t.Fatalf("final graph edge (%d,%d) presence %v after %d flips", u, v, g.HasEdge(u, v), flips)
	}
	if g.NumEdges() != ppm.Graph.NumEdges() {
		t.Fatalf("edge count drifted: %d vs %d", g.NumEdges(), ppm.Graph.NumEdges())
	}
}

// deltaFixture registers a PPM graph on a registry with poolSize handles,
// caches one full-run line and single-seed lines under two option
// fingerprints (so re-verification spans two pools), and returns the delta
// that lands inside two planted blocks: some lines are kept, some
// re-verified, the full-run line evicted.
func deltaFixture(t *testing.T, poolSize int) (*Registry, []graph.Edge, []graph.Edge) {
	t.Helper()
	ppm := testPPM(t, 512, 4)
	reg := NewRegistry(poolSize, nil)
	ctx := context.Background()
	if err := reg.Register("g", ppm.Graph, core.WithDelta(ppm.Config.ExpectedConductance())); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := reg.Detect(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 512; s += 16 {
		var opts []core.Option
		if s%32 == 16 {
			opts = append(opts, core.WithMixingThreshold(0.2))
		}
		if _, _, _, err := reg.DetectCommunity(ctx, "g", s, opts...); err != nil {
			t.Fatal(err)
		}
	}
	g := ppm.Graph
	var adds, dels []graph.Edge
	for u := 1; len(adds) == 0; u++ {
		if !g.HasEdge(0, u) {
			adds = append(adds, graph.Edge{U: 0, V: u})
		}
	}
	dels = append(dels, graph.Edge{U: 300, V: int(g.Neighbors(300)[0])})
	return reg, adds, dels
}

// commKeys returns the registry's single-seed cache keys, sorted.
func commKeys(reg *Registry) []string {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	keys := make([]string, 0, len(reg.comm))
	for k := range reg.comm {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lineOrder returns the registry's single-seed lines in FIFO order, each
// as its generation-free identity (seed and fingerprint).
func lineOrder(reg *Registry) []string {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	var ids []string
	for _, k := range reg.order {
		if c, ok := reg.comm[k]; ok {
			ids = append(ids, fmt.Sprintf("%d|%s", c.stats.Seed, c.fp))
		}
	}
	return ids
}

// isSubsequence reports whether sub appears in seq in the same relative
// order.
func isSubsequence(sub, seq []string) bool {
	i := 0
	for _, s := range seq {
		if i < len(sub) && sub[i] == s {
			i++
		}
	}
	return i == len(sub)
}

// TestApplyDeltaParallelReverifyMatchesSequential: re-verifying from four
// workers leaves exactly the cache a single worker leaves — the same kept /
// reverified / evicted counts, the same lines and the same FIFO order —
// because promotion happens in pending order after every worker is done.
// That order is the sequential one: kept lines keep their places, and the
// promoted lines follow in their pre-delta order.
func TestApplyDeltaParallelReverifyMatchesSequential(t *testing.T) {
	ctx := context.Background()
	var stats []DeltaStats
	var orders, keys [][]string
	for _, size := range []int{1, 4} {
		reg, adds, dels := deltaFixture(t, size)
		before := lineOrder(reg)
		st, err := reg.ApplyDelta(ctx, "g", adds, dels)
		if err != nil {
			t.Fatal(err)
		}
		if st.Reverified == 0 || st.Kept == 0 || st.Evicted == 0 {
			t.Fatalf("pool %d: delta did not exercise every outcome: %+v", size, st)
		}
		after := lineOrder(reg)
		if len(after) != st.Kept+st.Reverified ||
			!isSubsequence(after[:st.Kept], before) || !isSubsequence(after[st.Kept:], before) {
			t.Fatalf("pool %d: FIFO order %v is not kept lines then promoted lines, each in pre-delta order %v",
				size, after, before)
		}
		st.SwapDuration, st.ReverifyDuration = 0, 0
		stats = append(stats, st)
		reg.mu.Lock()
		orders = append(orders, slices.Clone(reg.order))
		reg.mu.Unlock()
		keys = append(keys, commKeys(reg))
	}
	if stats[0] != stats[1] {
		t.Fatalf("pool 1 stats %+v, pool 4 stats %+v", stats[0], stats[1])
	}
	if !slices.Equal(orders[0], orders[1]) {
		t.Fatalf("cache order differs:\npool 1: %v\npool 4: %v", orders[0], orders[1])
	}
	if !slices.Equal(keys[0], keys[1]) {
		t.Fatalf("cached lines differ:\npool 1: %v\npool 4: %v", keys[0], keys[1])
	}
}

// countdownCtx cancels itself on its left-th Err poll, so a test can land a
// cancellation at an arbitrary point of ApplyDelta's re-verification.
type countdownCtx struct {
	context.Context
	left   atomic.Int64
	cancel context.CancelFunc
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestApplyDeltaParallelReverifyCancel: a cancellation anywhere in the
// re-verification leaves every cache line accounted for exactly once, only
// counted promotions in the cache, and every pool handle back home — no
// worker outlives ApplyDelta. The last run is never cancelled; at least one
// earlier run must land its cancellation mid-way, between no promotion and
// all of them.
func TestApplyDeltaParallelReverifyCancel(t *testing.T) {
	var promoted []int
	for _, after := range []int64{1, 150, 400, 1e9} {
		reg, adds, dels := deltaFixture(t, 4)
		reg.mu.Lock()
		lines := len(reg.order)
		reg.mu.Unlock()
		base, cancel := context.WithCancel(context.Background())
		ctx := &countdownCtx{Context: base, cancel: cancel}
		ctx.left.Store(after)
		st, err := reg.ApplyDelta(ctx, "g", adds, dels)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Kept + st.Reverified + st.Evicted; got != lines {
			t.Fatalf("cancel after %d polls: kept %d + reverified %d + evicted %d = %d, want %d lines",
				after, st.Kept, st.Reverified, st.Evicted, got, lines)
		}
		if got := len(commKeys(reg)); got != st.Kept+st.Reverified {
			t.Fatalf("cancel after %d polls: %d cached lines, want kept+reverified = %d", after, got, st.Kept+st.Reverified)
		}
		reg.mu.Lock()
		for fp, slot := range reg.entries["g"].pools {
			if slot.pool.Idle() != slot.pool.Size() {
				t.Errorf("cancel after %d polls: pool %q has %d of %d handles idle after ApplyDelta returned",
					after, fp, slot.pool.Idle(), slot.pool.Size())
			}
		}
		reg.mu.Unlock()
		promoted = append(promoted, st.Reverified)
	}
	full := promoted[len(promoted)-1]
	if !slices.ContainsFunc(promoted[:len(promoted)-1], func(n int) bool { return n > 0 && n < full }) {
		t.Fatalf("no cancellation landed mid-way: promoted %v (uncancelled last)", promoted)
	}
}
