package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"cdrw"
)

// workload is one traffic mix against one serving stack. The graph is fixed
// per workload (graphSeed); the request list is a pure function of the
// workload seed given on the command line.
type workload struct {
	name      string
	ppm       cdrw.PPMConfig
	graphSeed uint64
	// shards is the number of cdrwd shards: 1 is a single process, more
	// form a cluster over loopback sockets, built as examples/cluster does.
	shards int
	// engine is the request's "engine" option; "" keeps the daemon's
	// default, the reference engine.
	engine string
	// hot selects Zipf reads over a warmed hot set with interleaved
	// single-edge PATCH writes; otherwise every read has a distinct seed.
	hot bool
	// traceOps is how many requests of the list the traced run replays.
	traceOps int
}

// Why each workload is in the benchmark:
//
//   - cold-community: every request is a cache miss on a 4096-vertex graph,
//     so the walk/sweep kernels and the reference engine do >99% of the
//     work; kernel and engine changes show here, serving changes do not.
//     It is not listed in BENCHMARK.json: runs must be 50 s long to average
//     out the host's speed drift, and only two workloads fit the time of a
//     full measurement; the other two cover every layer (README.md).
//   - hot-read-patch: reads hit the result cache (HTTP codec and cache
//     cost) while rare PATCH writes exercise ApplyDelta, the pool rebuild
//     and re-verification.
//   - cluster-congest: three shards answer CONGEST detections over loopback
//     sockets, so flood rounds and share pulls dominate; the other two
//     workloads never touch the congest or cluster layers.
//
// Every workload's timed phase has one closed-loop client (see runLoad).
// With writes, one client is also what keeps the list valid: a delete
// undoes an earlier add, which a second client could overtake.
var workloads = []workload{
	{
		name: "cold-community", ppm: cdrw.PPMConfig{N: 4096, R: 4, P: 0.02, Q: 0.0005},
		graphSeed: 1, shards: 1, traceOps: 20,
	},
	{
		name: "hot-read-patch", ppm: cdrw.PPMConfig{N: 2048, R: 4, P: 0.04, Q: 0.001},
		graphSeed: 1, shards: 1, hot: true, traceOps: 1200,
	},
	{
		name: "cluster-congest", ppm: cdrw.PPMConfig{N: 900, R: 3, P: 0.05, Q: 0.002},
		graphSeed: 11, shards: 3, engine: "congest", traceOps: 30,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

const (
	// hotSetSize is how many distinct seeds the hot workload reads; all of
	// them are warmed in set-up.
	hotSetSize = 64
	// zipfS is the Zipf exponent of hot reads.
	zipfS = 1.1
	// writeEvery makes every writeEvery-th hot request a PATCH.
	writeEvery = 400
	// maxAdded bounds how many edits the PATCH stream keeps applied, so the
	// graph stays within a few edges of the planted one.
	maxAdded = 3
	// warmSeeds is how many seeds a distinct-seed workload reads in set-up,
	// one per pooled detector handle.
	warmSeeds = 2
)

// op is one request of a workload's list.
type op struct {
	index  int
	write  bool
	vertex int       // read: the community seed
	del    bool      // write: delete edge (else add it)
	edge   cdrw.Edge // write: the edge
	shard  int       // shard the request is sent to
}

// requestList yields a workload's requests in order. The sequence depends
// only on the workload, its graph and the seed; it is not safe for
// concurrent use.
type requestList struct {
	wl   *workload
	rng  *rand.Rand
	i    int
	perm []int // distinct-seed reads
	warm []int // seeds read in set-up: the hot set, most popular first

	zipf  *rand.Zipf
	patch *patchGen
}

// newRequestList returns the list of a workload for a seed. The seeds read
// before timing (the hot set, in popularity order, or the warm-up seeds of
// a distinct-seed list) are part of the workload, drawn from its graph seed
// rather than the list seed: seeds differ up to 7x in detection cost and 3x
// in answer size, and a hot set drawn per list seed moved the hot
// workload's throughput and latencies by ~20% from seed to seed. The list
// seed draws the distinct seeds, the Zipf read sequence and the PATCH edges.
func newRequestList(wl *workload, g *cdrw.Graph, seed uint64) *requestList {
	rng := rand.New(rand.NewPCG(seed, 0x70657266))
	n := g.NumVertices()
	fixed := rand.New(rand.NewPCG(wl.graphSeed, 0x686f74)).Perm(n)
	l := &requestList{wl: wl}
	if wl.hot {
		l.warm = fixed[:hotSetSize]
		l.zipf = rand.NewZipf(rng, zipfS, 1, hotSetSize-1)
		l.patch = &patchGen{g: g, rng: rng}
		return l
	}
	l.warm = fixed[:warmSeeds]
	for _, v := range rng.Perm(n) {
		if !slices.Contains(l.warm, v) {
			l.perm = append(l.perm, v)
		}
	}
	return l
}

// warmSeeds returns the seeds set-up reads before timing starts: the whole
// hot set, or seeds a distinct-seed list never reads.
func (l *requestList) warmSeeds() []int { return l.warm }

// next returns the next request, or false when a distinct-seed list has no
// unread seed left.
func (l *requestList) next() (op, bool) {
	o := op{index: l.i, shard: l.i % l.wl.shards}
	switch {
	case l.wl.hot && l.i%writeEvery == writeEvery-1:
		o.write = true
		o.edge, o.del = l.patch.next()
	case l.wl.hot:
		o.vertex = l.warm[l.zipf.Uint64()]
	default:
		if l.i >= len(l.perm) {
			return op{}, false
		}
		o.vertex = l.perm[l.i]
	}
	l.i++
	return o, true
}

// patchGen produces single-edge deltas that are always valid against the
// graph as the previous deltas left it: an add picks an edge present in
// neither the base graph nor the current additions, and a delete removes
// one of the current additions. It never touches a base edge, so the graph
// stays within maxAdded edits of the planted one.
type patchGen struct {
	g     *cdrw.Graph
	rng   *rand.Rand
	added []cdrw.Edge
}

func (p *patchGen) next() (cdrw.Edge, bool) {
	if len(p.added) >= maxAdded || (len(p.added) > 0 && p.rng.IntN(2) == 0) {
		i := p.rng.IntN(len(p.added))
		e := p.added[i]
		p.added = slices.Delete(p.added, i, i+1)
		return e, true
	}
	n := p.g.NumVertices()
	for {
		u, v := p.rng.IntN(n), p.rng.IntN(n)
		if u > v {
			u, v = v, u
		}
		e := cdrw.Edge{U: u, V: v}
		if u == v || p.g.HasEdge(u, v) || slices.Contains(p.added, e) {
			continue
		}
		p.added = append(p.added, e)
		return e, false
	}
}

// requestBody renders a read as the /community JSON body.
func (wl *workload) requestBody(vertex int) []byte {
	if wl.engine == "" {
		return fmt.Appendf(nil, `{"seed":%d}`, vertex)
	}
	return fmt.Appendf(nil, `{"seed":%d,"options":{"engine":%q}}`, vertex, wl.engine)
}

// patchBody renders a write as the NDJSON PATCH body.
func patchBody(o op) []byte {
	kind := "add"
	if o.del {
		kind = "del"
	}
	return fmt.Appendf(nil, `{"op":%q,"u":%d,"v":%d}`+"\n", kind, o.edge.U, o.edge.V)
}

// options returns the detector options a read request resolves to.
func (wl *workload) options() []cdrw.Option {
	if wl.engine == "congest" {
		return []cdrw.Option{cdrw.WithEngine(cdrw.Congest)}
	}
	return nil
}
