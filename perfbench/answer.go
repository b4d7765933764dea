package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"cdrw"
)

// statsJSON and communityJSON mirror the daemon's POST /community answer.
// Oracle answers are rendered through them, so an HTTP answer is correct
// only if it is byte-identical to the oracle's rendering.
type statsJSON struct {
	Seed         int  `json:"seed"`
	WalkLength   int  `json:"walk_length"`
	Stopped      bool `json:"stopped"`
	FinalSetSize int  `json:"final_set_size"`
	SizesChecked int  `json:"sizes_checked"`
	FrozenAt     int  `json:"frozen_at"`
}

type communityJSON struct {
	Graph     string    `json:"graph"`
	Cached    bool      `json:"cached"`
	Community []int     `json:"community"`
	Stats     statsJSON `json:"stats"`
}

// deltaJSON mirrors the PATCH /graphs/{name}/edges answer.
type deltaJSON struct {
	Graph       string  `json:"graph"`
	Generation  int     `json:"generation"`
	Added       int     `json:"added"`
	Removed     int     `json:"removed"`
	Kept        int     `json:"kept"`
	Reverified  int     `json:"reverified"`
	Evicted     int     `json:"evicted"`
	SwapSeconds float64 `json:"swap_seconds"`
}

// render encodes an answer exactly as the daemon's JSON encoder does.
func render(a communityJSON) []byte {
	b, err := json.Marshal(a)
	if err != nil {
		panic(err) // ints, bools and a fixed string always encode
	}
	return append(b, '\n')
}

// parseAnswer decodes a /community answer and checks what holds for every
// correct one, whatever the graph generation: it answers for the asked seed
// on the benchmark's graph, and the community is a sorted set of in-range
// vertices that contains the seed and matches the reported size.
func parseAnswer(body []byte, seed, n int) (communityJSON, error) {
	var a communityJSON
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return a, fmt.Errorf("seed %d: undecodable answer: %v", seed, err)
	}
	switch {
	case a.Graph != graphName:
		return a, fmt.Errorf("seed %d: answer for graph %q", seed, a.Graph)
	case a.Stats.Seed != seed:
		return a, fmt.Errorf("seed %d: answer for seed %d", seed, a.Stats.Seed)
	case len(a.Community) != a.Stats.FinalSetSize:
		return a, fmt.Errorf("seed %d: community of %d vertices, final_set_size %d", seed, len(a.Community), a.Stats.FinalSetSize)
	case len(a.Community) == 0 || a.Community[0] < 0 || a.Community[len(a.Community)-1] >= n:
		return a, fmt.Errorf("seed %d: community out of range [0,%d)", seed, n)
	case !slices.IsSorted(a.Community) || hasDuplicate(a.Community):
		return a, fmt.Errorf("seed %d: community not a sorted set", seed)
	}
	if _, ok := slices.BinarySearch(a.Community, seed); !ok {
		return a, fmt.Errorf("seed %d: community does not contain its seed", seed)
	}
	return a, nil
}

func hasDuplicate(sorted []int) bool {
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return true
		}
	}
	return false
}

// oracle answers reads below the serving stack, on one graph generation:
// the reference Detector for reference-engine workloads, single-process
// CongestDetectCommunity for CONGEST ones. The detector (and for CONGEST the
// network) is reused across calls, as a caller serving one graph would.
type oracle struct {
	g    *cdrw.Graph
	det  *cdrw.Detector
	nw   *cdrw.CongestNetwork
	ccfg cdrw.CongestConfig
}

func newOracle(wl *workload, g *cdrw.Graph) (*oracle, error) {
	o := &oracle{g: g}
	det, err := cdrw.NewDetector(g, wl.options()...)
	if err != nil {
		return nil, err
	}
	det.Warm()
	o.det = det
	if wl.engine == "congest" {
		s, err := cdrw.ResolveOptions(g.NumVertices(), wl.options()...)
		if err != nil {
			return nil, err
		}
		o.ccfg = s.CongestConfig()
		o.nw = cdrw.NewCongestNetwork(g, s.CongestWorkers)
	}
	return o, nil
}

// soloResult is one single-process CONGEST detection and its cost.
type soloResult struct {
	community []int
	stats     statsJSON
	rounds    int64
	messages  int64
	floodMS   float64
}

// detect runs the Detector on seed v and returns a copy of its community.
func (o *oracle) detect(ctx context.Context, v int) ([]int, statsJSON, error) {
	comm, s, err := o.det.DetectCommunity(ctx, v)
	if err != nil {
		return nil, statsJSON{}, err
	}
	return slices.Clone(comm), statsJSON{
		Seed: s.Seed, WalkLength: s.WalkLength, Stopped: s.Stopped,
		FinalSetSize: s.FinalSetSize, SizesChecked: s.SizesChecked, FrozenAt: s.FrozenAt,
	}, nil
}

// solo runs single-process CONGEST detection on seed v under a trace, so
// its flood time is attributed the way the engine reports it.
func (o *oracle) solo(v int) (soloResult, error) {
	tr := cdrw.NewTrace(cdrw.NewTraceID(), "solo")
	comm, s, err := cdrw.CongestDetectCommunityContext(cdrw.ContextWithTrace(context.Background(), tr), o.nw, v, o.ccfg)
	if err != nil {
		return soloResult{}, err
	}
	return soloResult{
		community: slices.Clone(comm),
		stats: statsJSON{
			Seed: s.Seed, WalkLength: s.WalkLength, Stopped: s.Stopped,
			FinalSetSize: s.FinalSetSize, SizesChecked: s.SizesChecked, FrozenAt: s.FrozenAt,
		},
		rounds:   int64(s.Metrics.Rounds),
		messages: s.Metrics.Messages,
		floodMS:  tr.Snapshot().PhaseSeconds["flood"] * 1e3,
	}, nil
}

// expect returns the oracle's answer for seed v, rendered as the daemon
// would render it with the given cached flag.
func (o *oracle) expect(ctx context.Context, v int, cached bool) ([]byte, error) {
	var (
		comm []int
		s    statsJSON
		err  error
	)
	if o.nw != nil {
		var r soloResult
		r, err = o.solo(v)
		comm, s = r.community, r.stats
	} else {
		comm, s, err = o.detect(ctx, v)
	}
	if err != nil {
		return nil, err
	}
	return render(communityJSON{Graph: graphName, Cached: cached, Community: comm, Stats: s}), nil
}
