package congest

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/rng"
	"cdrw/internal/rw"
)

// settleGoroutines polls until the goroutine count drops back to the
// baseline (cancelled worker pools need a moment to observe ctx and unwind).
// Same pattern as internal/core/leak_test.go.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s leaked goroutines: %d running, baseline %d",
				what, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchCancellationLeaksNoGoroutines: cancelling mid-batch — from a load
// observer, while the 4-goroutine per-round worker pool is in use — tears
// the batched run down with ctx.Err() and no goroutine leaks, for both
// DetectBatch and the batched pool loop.
func TestBatchCancellationLeaksNoGoroutines(t *testing.T) {
	cfgGen := gen.PPMConfig{N: 512, R: 4, P: 2 * gen.Log2(128) / 128, Q: 0.1 / 128}
	ppm, err := gen.NewPPM(cfgGen, rng.New(211))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(512)
	cfg.Delta = cfgGen.ExpectedConductance()
	cfg.Workers = 4
	base := runtime.NumGoroutine()

	// DetectBatch: cancel once the batch has a few shared rounds in flight.
	{
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		nw := NewNetwork(ppm.Graph, cfg.Workers)
		rounds := 0
		nw.SetLoadObserver(func(int, []LinkLoad) {
			if rounds++; rounds == 3 {
				cancel()
			}
		})
		_, err := DetectBatchContext(ctx, nw, []int{0, 128, 256, 384}, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DetectBatch: error %v, want context.Canceled", err)
		}
		settleGoroutines(t, base, "DetectBatch cancellation")
	}

	// Batched pool loop: cancel mid-run the same way.
	{
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		nw := NewNetwork(ppm.Graph, cfg.Workers)
		rounds := 0
		nw.SetLoadObserver(func(int, []LinkLoad) {
			if rounds++; rounds == 5 {
				cancel()
			}
		})
		bcfg := cfg
		bcfg.Batch = 4
		_, err := DetectContext(ctx, nw, bcfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("batched Detect: error %v, want context.Canceled", err)
		}
		settleGoroutines(t, base, "batched pool cancellation")
	}
}

// TestDetectBatchValidation: bad config and out-of-range seeds are rejected
// before any round is simulated; an empty batch is a no-op.
func TestDetectBatchValidation(t *testing.T) {
	g := pathGraph(t, 8)
	nw := NewNetwork(g, 1)
	cfg := DefaultConfig(8)
	if _, err := DetectBatch(nw, []int{0, 99}, cfg); err == nil {
		t.Fatal("out-of-range batch seed accepted")
	}
	bad := cfg
	bad.Batch = -1
	if _, err := Detect(nw, bad); err == nil {
		t.Fatal("negative batch size accepted")
	}
	dets, err := DetectBatch(nw, nil, cfg)
	if err != nil || dets != nil {
		t.Fatalf("empty batch: dets=%v err=%v", dets, err)
	}
	if nw.Metrics().Rounds != 0 {
		t.Fatalf("validation consumed %d rounds", nw.Metrics().Rounds)
	}
}

// TestBatchObserversSeeAllMessages: on a batched run, the legacy Traffic
// observer still sees one entry per message and the load observer the same
// words in aggregate, both matching the network's global accounting and the
// per-walk lane totals.
func TestBatchObserversSeeAllMessages(t *testing.T) {
	g := gnpGraph(t, 192, 23)
	nw := NewNetwork(g, 1)
	var traffic, words int64
	trafficRounds, loadRounds := 0, 0
	nw.SetObserver(func(round int, msgs []Traffic) {
		trafficRounds++
		traffic += int64(len(msgs))
	})
	nw.SetLoadObserver(func(round int, loads []LinkLoad) {
		loadRounds++
		for _, ld := range loads {
			words += int64(ld.Words)
		}
	})
	cfg := DefaultConfig(192)
	dets, err := DetectBatch(nw, []int{0, 50, 100}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var laneSum int64
	for _, det := range dets {
		laneSum += det.Stats.Metrics.Messages
	}
	m := nw.Metrics()
	if traffic != m.Messages || words != m.Messages || laneSum != m.Messages {
		t.Fatalf("observers saw traffic=%d words=%d lanes=%d, metrics say %d",
			traffic, words, laneSum, m.Messages)
	}
	if trafficRounds != m.Rounds || loadRounds != m.Rounds {
		t.Fatalf("observers saw %d/%d rounds, metrics say %d", trafficRounds, loadRounds, m.Rounds)
	}
}

// TestSelectIndexedMatchesScan is the satellite equivalence test for the
// degree-indexed selection: on flooded walk distributions over Gnp graphs,
// selectKSmallestIndexed must return the same threshold key, the same
// success flag and the same iteration-for-iteration communication cost as
// the covered-scan reference, and its canonical sum must equal
// canonicalCoveredSum of the scan's threshold.
func TestSelectIndexedMatchesScan(t *testing.T) {
	for _, seed := range []uint64{7, 31} {
		g := gnpGraph(t, 200, seed)
		n := g.NumVertices()
		scanNW := NewNetwork(g, 1)
		idxNW := NewNetwork(g, 1)
		tree, err := scanNW.BuildTree(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if tree.Size() != n {
			t.Skip("sample disconnected; the indexed path needs full coverage")
		}
		tree2, err := idxNW.BuildTree(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		covered := tree.CoveredVertices()
		ws := newBatchWalk(n, 0)
		x := make([]float64, n)
		var off rw.OffSupportStream
		for step := 0; step < 6; step++ {
			floodWalks(scanNW, ws)
			var support []int32
			for v := 0; v < n; v++ {
				if ws.p[v] != 0 {
					support = append(support, int32(v))
				}
			}
			off.Reset(idxNW.degreeIndex(), support)
			for _, size := range []int{2, 8, 40, 150, 199, 200} {
				muPrime := rw.MuPrime(g, size)
				for u := 0; u < n; u++ {
					x[u] = rw.XValueAt(g, ws.p, u, size, muPrime)
				}
				before := scanNW.Metrics()
				scanTh, _, scanOK := scanNW.selectKSmallest(tree, covered, x, size)
				scanCost := scanNW.Metrics()
				scanCost.Rounds -= before.Rounds
				scanCost.Messages -= before.Messages

				off.SetMu(muPrime)
				xsup := make([]float64, len(support))
				for i, v := range support {
					xsup[i] = rw.XValueAt(g, ws.p, int(v), size, muPrime)
				}
				before = idxNW.Metrics()
				idxTh, idxSum, idxOK := idxNW.selectKSmallestIndexed(tree2, support, xsup, &off, muPrime, size)
				idxCost := idxNW.Metrics()
				idxCost.Rounds -= before.Rounds
				idxCost.Messages -= before.Messages

				if scanOK != idxOK {
					t.Fatalf("seed %d step %d size %d: ok %v vs %v", seed, step, size, scanOK, idxOK)
				}
				if !scanOK {
					continue
				}
				if scanTh != idxTh {
					t.Fatalf("seed %d step %d size %d: threshold %+v vs %+v", seed, step, size, scanTh, idxTh)
				}
				if scanCost != idxCost {
					t.Fatalf("seed %d step %d size %d: cost %+v vs %+v — the searches diverged",
						seed, step, size, scanCost, idxCost)
				}
				wantSum := canonicalCoveredSum(g, ws.p, covered, x, scanTh, muPrime, size)
				if idxSum != wantSum {
					t.Fatalf("seed %d step %d size %d: canonical sum %v vs %v", seed, step, size, idxSum, wantSum)
				}
			}
		}
	}
}

// TestCanonicalSumMatchesSweeper: fed the very same distribution, the
// CONGEST mixing-set search and the in-memory sparse sweep return exactly
// the same set — the two engines now share the statistic (rw.XValueAt) and
// its summation (rw.MixingSum) bit for bit, so every per-size threshold
// decision coincides.
func TestCanonicalSumMatchesSweeper(t *testing.T) {
	g := gnpGraph(t, 128, 3)
	if !g.IsConnected() {
		t.Skip("sample disconnected")
	}
	n := g.NumVertices()
	nw := NewNetwork(g, 1)
	tree, err := nw.BuildTree(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	covered := tree.CoveredVertices()
	sweeper := rw.NewSweeper(g)
	x := make([]float64, n)
	const minSize = 6
	ladder := rw.SizeLadder(minSize, n)
	for _, steps := range []int{1, 2, 4, 8} {
		p, err := rw.Walk(g, 0, steps)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sweeper.LargestMixingSet(p, nil, minSize, rw.MixOptions{})
		if err != nil {
			t.Fatal(err)
		}
		set, err := nw.largestMixingSet(tree, covered, p, x, ladder, rw.MixingThreshold)
		if err != nil {
			t.Fatal(err)
		}
		if want.Found() != (set != nil) {
			t.Fatalf("steps %d: engines disagree on finding a set (core %v, congest %v)",
				steps, want.Found(), set != nil)
		}
		if set == nil {
			continue
		}
		if len(set) != want.Size() {
			t.Fatalf("steps %d: set sizes differ: congest %d core %d", steps, len(set), want.Size())
		}
		for i := range set {
			if set[i] != want.Vertices[i] {
				t.Fatalf("steps %d: sets differ at %d: %d vs %d", steps, i, set[i], want.Vertices[i])
			}
		}
	}
}

// cliqueRow builds k disjoint cliques of c vertices each (clique i holds
// vertices [i·c, (i+1)·c)) — the straggler-tail fixture: a pool that is
// small in total but splits into many components.
func cliqueRow(t *testing.T, k, c int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(k * c)
	for blk := 0; blk < k; blk++ {
		base := blk * c
		for u := 0; u < c; u++ {
			for v := u + 1; v < c; v++ {
				b.AddEdge(base+u, base+v)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBatchedPoolComponentTail: when the whole pool sits below the
// Batch·MinCommunitySize guard but splits into disconnected components, the
// tail batches one seed per component instead of going sequential — every
// detection still bit-identical to a solo run of its seed, the partition
// complete, and the global round count strictly below the sequential loop's.
func TestBatchedPoolComponentTail(t *testing.T) {
	const k, c = 8, 8
	g := cliqueRow(t, k, c)
	cfg := DefaultConfig(k * c)
	cfg.Delta = 0.05

	seq, err := Detect(NewNetwork(g, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Batch far above the pool size: every super-step is a tail super-step.
	cfg.Batch = 32
	bat, err := Detect(NewNetwork(g, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bat.Metrics.Rounds >= seq.Metrics.Rounds {
		t.Fatalf("component tail took %d rounds, sequential %d — no round win",
			bat.Metrics.Rounds, seq.Metrics.Rounds)
	}

	seen := make([]bool, k*c)
	refNW := NewNetwork(g, 1)
	for _, det := range bat.Detections {
		for _, v := range det.Assigned {
			if seen[v] {
				t.Fatalf("vertex %d assigned twice", v)
			}
			seen[v] = true
		}
		want, wantStats, err := DetectCommunity(refNW, det.Stats.Seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(det.Raw, want) {
			t.Fatalf("seed %d: tail community %v != sequential %v", det.Stats.Seed, det.Raw, want)
		}
		if !reflect.DeepEqual(det.Stats, wantStats) {
			t.Fatalf("seed %d: tail stats %+v != sequential %+v", det.Stats.Seed, det.Stats, wantStats)
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("vertex %d unassigned", v)
		}
	}

	again, err := Detect(NewNetwork(g, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bat.Detections, again.Detections) || bat.Metrics != again.Metrics {
		t.Fatal("component-tail pool loop not deterministic")
	}
}
