package congest

import (
	"fmt"
	"hash/fnv"
	"testing"

	"cdrw/internal/gen"
	"cdrw/internal/rng"
)

// Golden pins: exact results and costs of fixed runs. Every distributed
// detection runs through detectBatch, so comparing a single seed with a
// batch of one would compare the loop with itself; these values were taken
// from an independent single-seed implementation and hold the loop to it.

// goldenPPM is a 4-block planted partition: enough blocks that a wrong stop
// rule or a wrong flood shows up as a different community, not just a
// different cost.
func goldenPPM(t *testing.T) (*gen.PPM, Config) {
	t.Helper()
	cfgGen := gen.PPMConfig{N: 512, R: 4, P: 2 * gen.Log2(128) / 128, Q: 0.1 / 128}
	ppm, err := gen.NewPPM(cfgGen, rng.New(211))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(512)
	cfg.Delta = cfgGen.ExpectedConductance()
	return ppm, cfg
}

// digest is an FNV-64a fingerprint of v's default formatting.
func digest(v any) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, v)
	return h.Sum64()
}

// loadTally counts the rounds and words a LoadObserver sees.
type loadTally struct {
	rounds int
	words  int64
}

func (lt *loadTally) observe(_ int, loads []LinkLoad) {
	lt.rounds++
	for _, ld := range loads {
		lt.words += int64(ld.Words)
	}
}

// TestGoldenDetectCommunity pins three single-seed detections exactly: the
// community (size and digest), the full stats struct, the network's totals
// and what a LoadObserver saw. The cases cover the degree-indexed selection
// (unbounded tree), the covered-scan selection (depth-limited tree) and a
// transport-backed flood.
func TestGoldenDetectCommunity(t *testing.T) {
	ppm, base := goldenPPM(t)
	cases := []struct {
		name      string
		seed      int
		depth     int
		transport bool

		size      int
		community uint64
		stats     CommunityStats
		network   Metrics
		obsRounds int
		obsWords  int64
	}{
		{name: "unbounded", seed: 5, depth: -1,
			size: 169, community: 0xd75059e9e34294f8,
			stats:   CommunityStats{Seed: 5, WalkLength: 7, Stopped: true, FinalSetSize: 169, SizesChecked: 665, FrozenAt: 6, TreeDepth: 5, Metrics: Metrics{Rounds: 63198, Messages: 6492573}},
			network: Metrics{Rounds: 63198, Messages: 6492573}, obsRounds: 63198, obsWords: 6492573},
		{name: "depth2", seed: 200, depth: 2,
			size: 15, community: 0x2b149a162576a999,
			stats:   CommunityStats{Seed: 200, WalkLength: 44, Stopped: false, FinalSetSize: 15, SizesChecked: 4180, FrozenAt: 1, TreeDepth: 2, Metrics: Metrics{Rounds: 80656, Messages: 4933233}},
			network: Metrics{Rounds: 80656, Messages: 4933233}, obsRounds: 80656, obsWords: 4933233},
		{name: "transport", seed: 444, depth: -1, transport: true,
			size: 155, community: 0x8b74dc574362de2a,
			stats:   CommunityStats{Seed: 444, WalkLength: 6, Stopped: true, FinalSetSize: 155, SizesChecked: 570, FrozenAt: 5, TreeDepth: 5, Metrics: Metrics{Rounds: 54222, Messages: 5567064}},
			network: Metrics{Rounds: 54222, Messages: 5567064}, obsRounds: 54222, obsWords: 5567064},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.TreeDepthLimit = tc.depth
			nw := NewNetwork(ppm.Graph, 1)
			var tally loadTally
			nw.SetLoadObserver(tally.observe)
			if tc.transport {
				nw.SetFloodTransport(&loopbackTransport{nw: nw})
			}
			com, stats, err := DetectCommunity(nw, tc.seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(com) != tc.size || digest(com) != tc.community {
				t.Fatalf("community: %d vertices, digest %#x; want %d, %#x", len(com), digest(com), tc.size, tc.community)
			}
			if stats != tc.stats {
				t.Fatalf("stats:\n got %+v\nwant %+v", stats, tc.stats)
			}
			if nw.Metrics() != tc.network {
				t.Fatalf("network metrics %+v, want %+v", nw.Metrics(), tc.network)
			}
			if tally.rounds != tc.obsRounds || tally.words != tc.obsWords {
				t.Fatalf("observer saw %d rounds / %d words, want %d / %d",
					tally.rounds, tally.words, tc.obsRounds, tc.obsWords)
			}
		})
	}
}

// TestGoldenDetect pins a whole Batch=1 pool run: every detection's stats,
// a digest of the detections (communities, assignments and stats), the
// result and network totals, and the observed rounds and words.
func TestGoldenDetect(t *testing.T) {
	ppm, cfg := goldenPPM(t)
	cfg.Seed = 9
	cfg.Batch = 1
	nw := NewNetwork(ppm.Graph, 1)
	var tally loadTally
	nw.SetLoadObserver(tally.observe)
	res, err := Detect(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := []CommunityStats{
		{Seed: 1, WalkLength: 6, Stopped: true, FinalSetSize: 155, SizesChecked: 570, FrozenAt: 5, TreeDepth: 5, Metrics: Metrics{Rounds: 53857, Messages: 5530339}},
		{Seed: 220, WalkLength: 7, Stopped: true, FinalSetSize: 155, SizesChecked: 665, FrozenAt: 6, TreeDepth: 4, Metrics: Metrics{Rounds: 50856, Messages: 6530296}},
		{Seed: 290, WalkLength: 6, Stopped: true, FinalSetSize: 149, SizesChecked: 570, FrozenAt: 5, TreeDepth: 5, Metrics: Metrics{Rounds: 53737, Messages: 5515765}},
		{Seed: 474, WalkLength: 6, Stopped: true, FinalSetSize: 149, SizesChecked: 570, FrozenAt: 5, TreeDepth: 5, Metrics: Metrics{Rounds: 54297, Messages: 5574275}},
	}
	if len(res.Detections) != len(wantStats) {
		t.Fatalf("%d detections, want %d", len(res.Detections), len(wantStats))
	}
	for i, det := range res.Detections {
		if det.Stats != wantStats[i] {
			t.Fatalf("detection %d stats:\n got %+v\nwant %+v", i, det.Stats, wantStats[i])
		}
	}
	if d := digest(res.Detections); d != 0x774d337dee58514d {
		t.Fatalf("detections digest %#x, want 0x774d337dee58514d", d)
	}
	want := Metrics{Rounds: 212747, Messages: 23150675}
	if res.Metrics != want || nw.Metrics() != want {
		t.Fatalf("result metrics %+v, network %+v, want %+v", res.Metrics, nw.Metrics(), want)
	}
	if tally.rounds != want.Rounds || tally.words != want.Messages {
		t.Fatalf("observer saw %d rounds / %d words, want %d / %d",
			tally.rounds, tally.words, want.Rounds, want.Messages)
	}
}

// TestGoldenDetectBatched pins two batched pool runs exactly: seed order,
// digests of the Raw and Assigned sets, every detection's stats, the
// result and network totals, and the observed rounds and words. Batch 4 on
// the 4-block PPM draws one ball-spread super-step; Batch 3 on eight
// disjoint 8-cliques runs two ball-spread super-steps and then a
// component-tail super-step with one seed per remaining clique.
func TestGoldenDetectBatched(t *testing.T) {
	ppm, ppmCfg := goldenPPM(t)
	ppmCfg.Seed = 9
	ppmCfg.Batch = 4
	tailCfg := DefaultConfig(64)
	tailCfg.Delta = 0.05
	tailCfg.Seed = 5
	tailCfg.Batch = 3
	cliqueStats := func(seed, rounds int, messages int64) CommunityStats {
		return CommunityStats{Seed: seed, WalkLength: 3, Stopped: true, FinalSetSize: 8, SizesChecked: 144, FrozenAt: 2, TreeDepth: 1,
			Metrics: Metrics{Rounds: rounds, Messages: messages}}
	}
	cases := []struct {
		name string
		nw   *Network
		cfg  Config

		stats         []CommunityStats
		raw, assigned uint64
		metrics       Metrics
	}{
		{name: "ppm-batch4", nw: NewNetwork(ppm.Graph, 1), cfg: ppmCfg,
			stats: []CommunityStats{
				{Seed: 1, WalkLength: 6, Stopped: true, FinalSetSize: 155, SizesChecked: 570, FrozenAt: 5, TreeDepth: 5, Metrics: Metrics{Rounds: 53857, Messages: 5530339}},
				{Seed: 215, WalkLength: 6, Stopped: true, FinalSetSize: 162, SizesChecked: 570, FrozenAt: 5, TreeDepth: 5, Metrics: Metrics{Rounds: 53952, Messages: 5542132}},
				{Seed: 263, WalkLength: 6, Stopped: true, FinalSetSize: 149, SizesChecked: 570, FrozenAt: 5, TreeDepth: 5, Metrics: Metrics{Rounds: 53247, Messages: 5467980}},
				{Seed: 464, WalkLength: 6, Stopped: true, FinalSetSize: 149, SizesChecked: 570, FrozenAt: 5, TreeDepth: 5, Metrics: Metrics{Rounds: 55927, Messages: 5738265}},
			},
			raw: 0x961a4b5f89c04f1d, assigned: 0xb46fa03621da1793,
			metrics: Metrics{Rounds: 56217, Messages: 22278716}},
		{name: "clique-tail-batch3", nw: NewNetwork(cliqueRow(t, 8, 8), 1), cfg: tailCfg,
			stats: []CommunityStats{
				cliqueStats(18, 29, 336), cliqueStats(41, 29, 336), cliqueStats(39, 27, 322),
				cliqueStats(56, 27, 322), cliqueStats(24, 27, 322), cliqueStats(50, 29, 336),
				cliqueStats(8, 27, 322), cliqueStats(6, 27, 322),
			},
			raw: 0xe3d6ea2a2bb2731f, assigned: 0xe3d6ea2a2bb2731f,
			metrics: Metrics{Rounds: 85, Messages: 2618}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tally loadTally
			tc.nw.SetLoadObserver(tally.observe)
			res, err := Detect(tc.nw, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Detections) != len(tc.stats) {
				t.Fatalf("%d detections, want %d", len(res.Detections), len(tc.stats))
			}
			var raw, assigned [][]int
			for i, det := range res.Detections {
				if det.Stats != tc.stats[i] {
					t.Fatalf("detection %d stats:\n got %+v\nwant %+v", i, det.Stats, tc.stats[i])
				}
				raw = append(raw, det.Raw)
				assigned = append(assigned, det.Assigned)
			}
			if digest(raw) != tc.raw || digest(assigned) != tc.assigned {
				t.Fatalf("digests raw %#x assigned %#x, want %#x %#x", digest(raw), digest(assigned), tc.raw, tc.assigned)
			}
			if res.Metrics != tc.metrics || tc.nw.Metrics() != tc.metrics {
				t.Fatalf("result metrics %+v, network %+v, want %+v", res.Metrics, tc.nw.Metrics(), tc.metrics)
			}
			if tally.rounds != tc.metrics.Rounds || tally.words != tc.metrics.Messages {
				t.Fatalf("observer saw %d rounds / %d words, want %d / %d",
					tally.rounds, tally.words, tc.metrics.Rounds, tc.metrics.Messages)
			}
		})
	}
}
