// Command cdrw detects communities in a planted-partition graph (generated
// on the fly or loaded from an edge list) with the CDRW algorithm, and
// reports per-community statistics and the paper's F-score when ground
// truth is available.
//
// One driver serves all three engines through the unified Detector surface;
// -engine swaps the backend without changing anything else:
//
//	cdrw -n 2048 -r 2 -p 0.02 -q 0.0006 [-engine reference|parallel|congest] [-seed 1]
//	cdrw -in graph.txt [-engine reference]
//
// "core" is accepted as a legacy alias for "reference".
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"cdrw"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cdrw:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cdrw", flag.ContinueOnError)
	var (
		n      = fs.Int("n", 2048, "number of vertices (generated graphs)")
		r      = fs.Int("r", 2, "number of planted communities (also the parallel engine's estimate)")
		p      = fs.Float64("p", 0, "intra-community edge probability (default 2·log2(n/r)/(n/r))")
		q      = fs.Float64("q", 0, "inter-community edge probability (default 0.1/(n/r))")
		seed   = fs.Uint64("seed", 1, "random seed")
		engine = fs.String("engine", "reference", "detection engine: reference (in-memory, alias: core), parallel, or congest (message passing)")
		input  = fs.String("in", "", "read an edge-list file instead of generating a PPM")
		delta  = fs.Float64("delta", -1, "stop-rule slack δ (default: expected PPM conductance, or 0.1 for -in graphs)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if math.IsNaN(*delta) {
		return fmt.Errorf("-delta must be a number, got %v", *delta)
	}
	eng, err := cdrw.ParseEngine(*engine)
	if err != nil {
		return err
	}

	var (
		g      *cdrw.Graph
		ppm    *cdrw.PPM
		delta2 float64
	)
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err = cdrw.ReadEdgeList(f)
		if err != nil {
			return err
		}
		delta2 = 0.1
	} else {
		if *n%*r != 0 {
			return fmt.Errorf("n=%d not divisible by r=%d", *n, *r)
		}
		block := *n / *r
		pv, qv := *p, *q
		if pv == 0 {
			pv = 2 * log2(block) / float64(block)
		}
		if qv == 0 {
			qv = 0.1 / float64(block)
		}
		cfg := cdrw.PPMConfig{N: *n, R: *r, P: pv, Q: qv}
		var err error
		ppm, err = cdrw.NewPPM(cfg, cdrw.NewRNG(*seed))
		if err != nil {
			return err
		}
		g = ppm.Graph
		delta2 = cfg.ExpectedConductance()
		fmt.Fprintf(out, "generated PPM: n=%d r=%d p=%.6f q=%.6f m=%d expected-conductance=%.4f\n",
			*n, *r, pv, qv, g.NumEdges(), delta2)
	}
	if *delta >= 0 {
		delta2 = *delta
	}

	opts := []cdrw.Option{
		cdrw.WithEngine(eng),
		cdrw.WithDelta(delta2),
		cdrw.WithSeed(*seed + 1),
	}
	if eng == cdrw.Parallel {
		opts = append(opts, cdrw.WithCommunityEstimate(*r))
	}
	d, err := cdrw.NewDetector(g, opts...)
	if err != nil {
		return err
	}
	res, err := d.Detect(context.Background())
	if err != nil {
		return err
	}
	for i, det := range res.Detections {
		fmt.Fprintf(out, "community %d: seed=%d |raw|=%d |assigned|=%d walk=%d stopped=%v\n",
			i, det.Stats.Seed, len(det.Raw), len(det.Assigned), det.Stats.WalkLength, det.Stats.Stopped)
	}
	if m, ok := d.CongestMetrics(); ok {
		fmt.Fprintf(out, "total CONGEST cost: rounds=%d messages=%d\n", m.Rounds, m.Messages)
	}
	return reportFScore(out, ppm, res)
}

func reportFScore(out io.Writer, ppm *cdrw.PPM, res *cdrw.Result) error {
	if ppm == nil {
		return nil
	}
	truth := ppm.TruthCommunities()
	var drs []cdrw.DetectionResult
	for _, det := range res.Detections {
		drs = append(drs, cdrw.DetectionResult{Detected: det.Raw, Truth: truth[ppm.Truth[det.Stats.Seed]]})
	}
	f, err := cdrw.TotalFScore(drs)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "F-score: %.4f\n", f)
	return nil
}

func log2(n int) float64 {
	l := 0.0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}
