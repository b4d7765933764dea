package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"cdrw/internal/congest"
	"cdrw/internal/gen"
	"cdrw/internal/rng"
)

// Golden pins of the Detector's Algorithm 1 pool loop: exact seed order,
// digests of the Raw and Assigned sets, every detection's stats and, on the
// CONGEST engine, the run's rounds and messages. The values were taken
// while the reference and CONGEST engines still ran separate pool loops and
// hold every engine to them.

// goldenPPM is the 4-block planted partition of the congest package's
// golden pins (n=512, generator seed 211), so the CONGEST pins here and
// there describe the same graph.
func goldenPPM(t *testing.T) *gen.PPM {
	t.Helper()
	cfg := gen.PPMConfig{N: 512, R: 4, P: 2 * gen.Log2(128) / 128, Q: 0.1 / 128}
	ppm, err := gen.NewPPM(cfg, rng.New(211))
	if err != nil {
		t.Fatal(err)
	}
	return ppm
}

// digest is an FNV-64a fingerprint of v's default formatting.
func digest(v any) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, v)
	return h.Sum64()
}

// TestGoldenDetectorDetect pins whole Detect runs on the reference engine
// and on the CONGEST engine with one seed and with four seeds per
// super-step.
func TestGoldenDetectorDetect(t *testing.T) {
	ppm := goldenPPM(t)
	base := []Option{WithDelta(ppm.Config.ExpectedConductance()), WithSeed(9)}
	sequential := []CommunityStats{
		{Seed: 1, WalkLength: 6, Stopped: true, FinalSetSize: 155, SizesChecked: 570, FrozenAt: 5},
		{Seed: 220, WalkLength: 7, Stopped: true, FinalSetSize: 155, SizesChecked: 665, FrozenAt: 6},
		{Seed: 290, WalkLength: 6, Stopped: true, FinalSetSize: 149, SizesChecked: 570, FrozenAt: 5},
		{Seed: 474, WalkLength: 6, Stopped: true, FinalSetSize: 149, SizesChecked: 570, FrozenAt: 5},
	}
	cases := []struct {
		name string
		opts []Option

		stats         []CommunityStats
		raw, assigned uint64
		congest       congest.Metrics // zero on the reference engine
	}{
		{name: "reference", opts: base,
			stats: sequential, raw: 0xc297482f262fb512, assigned: 0x5fcac0a9992dd5d7},
		{name: "congest", opts: append([]Option{WithEngine(EngineCongest)}, base...),
			stats: sequential, raw: 0xc297482f262fb512, assigned: 0x5fcac0a9992dd5d7,
			congest: congest.Metrics{Rounds: 212747, Messages: 23150675}},
		{name: "congest-batch4", opts: append([]Option{WithEngine(EngineCongest), WithCongestBatch(4)}, base...),
			stats: []CommunityStats{
				{Seed: 1, WalkLength: 6, Stopped: true, FinalSetSize: 155, SizesChecked: 570, FrozenAt: 5},
				{Seed: 215, WalkLength: 6, Stopped: true, FinalSetSize: 162, SizesChecked: 570, FrozenAt: 5},
				{Seed: 263, WalkLength: 6, Stopped: true, FinalSetSize: 149, SizesChecked: 570, FrozenAt: 5},
				{Seed: 464, WalkLength: 6, Stopped: true, FinalSetSize: 149, SizesChecked: 570, FrozenAt: 5},
			},
			raw: 0x961a4b5f89c04f1d, assigned: 0xb46fa03621da1793,
			congest: congest.Metrics{Rounds: 56217, Messages: 22278716}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDetector(ppm.Graph, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Detect(context.Background())
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
			if m, _ := d.CongestMetrics(); m != tc.congest {
				t.Fatalf("congest metrics %+v, want %+v", m, tc.congest)
			}
		})
	}
}
