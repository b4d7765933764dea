package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"cdrw"
)

// deployment is a set-up stack with its graph and request list.
type deployment struct {
	wl      *workload
	ppm     *cdrw.PPM
	st      *stack
	list    *requestList
	blocks  [][]int // planted block members, for F-scores
	gen     time.Duration
	uploads []time.Duration // each graph upload's latency
	setup   time.Duration   // the whole set-up
}

// setUp generates the workload's graph, starts its stack, uploads the graph
// to every shard over HTTP, waits until every shard is ready and reads the
// list's warm-up seeds, so timing starts on filled pools and caches.
func setUp(wl *workload, seed uint64, c *http.Client, t *tally) (*deployment, error) {
	start := time.Now()
	ppm, err := cdrw.NewPPM(wl.ppm, cdrw.NewRNG(wl.graphSeed))
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	d := &deployment{wl: wl, ppm: ppm, gen: time.Since(start)}
	d.blocks = make([][]int, wl.ppm.R)
	for v, b := range ppm.Truth {
		d.blocks[b] = append(d.blocks[b], v)
	}
	d.list = newRequestList(wl, ppm.Graph, seed)

	if d.st, err = startStack(wl.shards); err != nil {
		return nil, err
	}
	var edges bytes.Buffer
	if err := cdrw.WriteEdgeList(&edges, ppm.Graph); err != nil {
		d.st.close()
		return nil, err
	}
	var buf bytes.Buffer
	for _, u := range d.st.urls {
		t.attempt()
		status, lat, err := send(c, http.MethodPut, u+"/graphs/"+graphName, edges.Bytes(), "", &buf)
		if err != nil || status != http.StatusCreated {
			t.fail(fmt.Sprintf("upload to %s: status %d, %v: %s", u, status, err, buf.Bytes()))
			d.st.close()
			return nil, fmt.Errorf("upload to %s failed", u)
		}
		d.uploads = append(d.uploads, lat)
	}
	if err := d.st.waitReady(c); err != nil {
		d.st.close()
		return nil, err
	}
	d.warm(c, t)
	d.setup = time.Since(start)
	return d, nil
}

// warmWorkers is how many requests warm-up keeps in flight: one per pooled
// detector handle on the 2-CPU machines the benchmark targets.
const warmWorkers = 2

// warm reads the warm-up seeds, warmWorkers at a time.
func (d *deployment) warm(c *http.Client, t *tally) {
	seeds := d.list.warmSeeds()
	var wg sync.WaitGroup
	for w := range warmWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := w; i < len(seeds); i += warmWorkers {
				t.attempt()
				u := d.st.urls[i%len(d.st.urls)]
				status, _, err := send(c, http.MethodPost, u+"/graphs/"+graphName+"/community", d.wl.requestBody(seeds[i]), "", &buf)
				if err != nil || status != http.StatusOK {
					t.fail(fmt.Sprintf("warm-up seed %d: status %d, %v", seeds[i], status, err))
				}
			}
		}()
	}
	wg.Wait()
}

// truth returns the planted block of v.
func (d *deployment) truth(v int) []int { return d.blocks[d.ppm.Truth[v]] }

// answerKey identifies one distinct answer: a seed and the hash of the
// bytes served for it.
type answerKey struct {
	vertex int
	hash   uint64
}

// answerInfo is what the benchmark keeps of one distinct answer.
type answerInfo struct {
	ok     bool
	fscore float64
	stats  statsJSON
}

// work is one read's deterministic cost, as the ledger records it.
type work struct {
	vertex int
	counts workCounts
}

// loadResult is what a closed-loop phase observed.
type loadResult struct {
	elapsed time.Duration
	done    int       // operations answered correctly
	reads   []float64 // read latencies, ms
	writes  int       // writes answered correctly
	answers map[answerKey]answerInfo
	bodies  map[int][]byte // bodies of the first spotChecks list reads
	works   []work
}

// spotChecks is how many of the first reads of a distinct-seed list the
// untraced run compares with the oracle after the timed phase.
const spotChecks = 3

var hashSeed = maphash.MakeSeed()

// runLoad drives the list from one closed-loop client for dur: it sends
// its next request only after the previous answer arrived. One client
// leaves the second of the two CPUs the benchmark targets to the stack's
// own goroutines and to other tenants of a shared host: with two clients
// saturating both CPUs, a busy loop on one CPU cut throughput by a third,
// against 1-4% with one client.
func runLoad(d *deployment, c *http.Client, t *tally, dur time.Duration) *loadResult {
	wl := d.wl
	n := d.ppm.Graph.NumVertices()
	r := &loadResult{answers: map[answerKey]answerInfo{}, bodies: map[int][]byte{}}
	var buf bytes.Buffer
	start := time.Now()
	deadline := start.Add(dur)
	for time.Now().Before(deadline) {
		o, ok := d.list.next()
		if !ok {
			break
		}
		t.attempt()
		if o.write {
			status, _, err := send(c, http.MethodPatch, d.st.urls[o.shard]+"/graphs/"+graphName+"/edges", patchBody(o), "", &buf)
			if _, derr := parseDelta(buf.Bytes(), status, err, o); derr != nil {
				t.fail(derr.Error())
				continue
			}
			r.done++
			r.writes++
			continue
		}
		status, lat, err := send(c, http.MethodPost, d.st.urls[o.shard]+"/graphs/"+graphName+"/community", wl.requestBody(o.vertex), "", &buf)
		if err != nil || status != http.StatusOK {
			t.fail(fmt.Sprintf("read seed %d: status %d, %v: %.200s", o.vertex, status, err, buf.Bytes()))
			continue
		}
		key := answerKey{o.vertex, maphash.Bytes(hashSeed, buf.Bytes())}
		info, seen := r.answers[key]
		if !seen {
			a, perr := parseAnswer(buf.Bytes(), o.vertex, n)
			info = answerInfo{ok: perr == nil, stats: a.Stats}
			if perr != nil {
				t.fail(perr.Error())
			} else {
				info.fscore = cdrw.FScore(a.Community, d.truth(o.vertex))
			}
			r.answers[key] = info
		} else if !info.ok {
			t.fail(fmt.Sprintf("read seed %d: malformed answer repeated", o.vertex))
		}
		if !info.ok {
			continue
		}
		r.done++
		r.reads = append(r.reads, ms(lat))
		if o.index < spotChecks && !wl.hot {
			r.bodies[o.index] = slices.Clone(buf.Bytes())
		}
		if !wl.hot {
			r.works = append(r.works, work{o.vertex, workCounts{
				WalkLength: info.stats.WalkLength, SizesChecked: info.stats.SizesChecked, FrozenAt: info.stats.FrozenAt,
				ClusterRounds: -1, LinkWords: -1, LinkBytes: -1, CongestRounds: -1, CongestMessages: -1,
			}})
		}
	}
	r.elapsed = time.Since(start)
	return r
}

// parseDelta checks a PATCH answer: 200, and exactly the one edge applied.
func parseDelta(body []byte, status int, err error, o op) (deltaJSON, error) {
	var dj deltaJSON
	if err != nil || status != http.StatusOK {
		return dj, fmt.Errorf("patch %+v: status %d, %v: %.200s", o.edge, status, err, body)
	}
	if err := jsonStrict(body, &dj); err != nil {
		return dj, fmt.Errorf("patch %+v: undecodable answer: %v", o.edge, err)
	}
	want := deltaJSON{Added: 1}
	if o.del {
		want = deltaJSON{Removed: 1}
	}
	if dj.Graph != graphName || dj.Added != want.Added || dj.Removed != want.Removed {
		return dj, fmt.Errorf("patch %+v: answer %+v", o.edge, dj)
	}
	return dj, nil
}

// fscoreMean is the mean F-score of the distinct answers served.
func (r *loadResult) fscoreMean() float64 {
	var fs []float64
	for _, a := range r.answers {
		if a.ok {
			fs = append(fs, a.fscore)
		}
	}
	return mean(fs)
}

// measure is the untraced run: set up setupReps times (the last stack is
// kept), drive the timed phase, then check answers against the oracle.
func measure(wl *workload, seed uint64, seconds int) (*report, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	t := &tally{}
	var (
		d      *deployment
		setups []float64
	)
	for range setupReps {
		if d != nil {
			d.st.close()
		}
		var err error
		if d, err = setUp(wl, seed, c, t); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.setup.Seconds())
	}
	defer d.st.close()

	lr := runLoad(d, c, t, time.Duration(seconds)*time.Second)
	reads := slices.Sorted(slices.Values(lr.reads))
	rep := &report{t: t}
	rep.add("setup_s", median(setups), "s")
	rep.add("throughput_rps", float64(lr.done)/lr.elapsed.Seconds(), "1/s")
	rep.add("latency_p50_ms", percentile(reads, 0.50), "ms")
	rep.add("latency_p95_ms", percentile(reads, 0.95), "ms")
	rep.add("fscore_mean", lr.fscoreMean(), "ratio")
	if !supportsPercentile(len(reads), 0.95) {
		rep.note("only %d reads: fewer than %d beyond p95", len(reads), minBeyond)
	}
	rep.note("timed phase: %d reads, %d writes in %.3f s; %d set-ups", len(lr.reads), lr.writes, lr.elapsed.Seconds(), len(setups))

	// Live heap of the serving stack, with the benchmark's own samples and
	// answers released first.
	lr.reads, lr.answers = nil, nil
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	rep.add("live_heap_mb", float64(mem.HeapAlloc)/1e6, "MB")

	if err := checkAfterLoad(d, lr, c, t); err != nil {
		return nil, err
	}
	if !wl.hot {
		checkLedger(wl, lr.works, t)
	}
	return rep, nil
}

// setupReps is how many times an untraced run sets up, so setup_s is a
// median rather than one sample.
const setupReps = 3

// checkAfterLoad compares answers served during the timed phase with the
// oracle. Distinct-seed workloads check the first spotChecks reads. The hot
// workload checks the final state: the served graph must be the planted
// graph plus the net PATCH delta, and uncached answers for the most popular
// seeds must equal a fresh Detector's on that graph.
func checkAfterLoad(d *deployment, lr *loadResult, c *http.Client, t *tally) error {
	ctx := context.Background()
	if !d.wl.hot {
		or, err := newOracle(d.wl, d.ppm.Graph)
		if err != nil {
			return err
		}
		for i := range spotChecks {
			body, ok := lr.bodies[i]
			if !ok {
				continue
			}
			want, err := or.expect(ctx, d.list.perm[i], false)
			if err != nil {
				return err
			}
			if !bytes.Equal(body, want) {
				t.fail(fmt.Sprintf("seed %d: answer differs from the oracle", d.list.perm[i]))
			}
		}
		return nil
	}
	want, err := d.ppm.Graph.ApplyDelta(d.list.patch.added, nil)
	if err != nil {
		return err
	}
	served, ok := d.st.regs[0].Graph(graphName)
	if !ok || served.NumEdges() != want.NumEdges() || !sameEdges(served, want) {
		t.fail("served graph differs from the planted graph plus the net PATCH delta")
		return nil
	}
	or, err := newOracle(d.wl, want)
	if err != nil {
		return err
	}
	// A cached line may legitimately differ from a fresh detection once the
	// graph changed (the traced run checks lines against the cache
	// contract), so these reads ask for an uncached answer: the pool-sampling
	// seed option changes the cache key but not a single-seed detection.
	var buf bytes.Buffer
	for _, v := range d.list.warm[:finalChecks] {
		t.attempt()
		body := fmt.Appendf(nil, `{"seed":%d,"options":{"seed":%d}}`, v, uncachedPoolSeed)
		status, _, err := send(c, http.MethodPost, d.st.urls[0]+"/graphs/"+graphName+"/community", body, "", &buf)
		if err != nil || status != http.StatusOK {
			t.fail(fmt.Sprintf("final read seed %d: status %d, %v", v, status, err))
			continue
		}
		a, err := parseAnswer(buf.Bytes(), v, want.NumVertices())
		if err != nil {
			t.fail(err.Error())
			continue
		}
		exp, err := or.expect(ctx, v, a.Cached)
		if err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), exp) {
			t.fail(fmt.Sprintf("final read seed %d: answer differs from the oracle", v))
		}
	}
	return nil
}

// uncachedPoolSeed is a pool-sampling seed no timed request uses.
const uncachedPoolSeed = 7

// finalChecks is how many of the most popular hot seeds the final-state
// check reads.
const finalChecks = 8

// sameEdges reports whether a and b hold the same edge set (equal edge
// counts assumed).
func sameEdges(a, b *cdrw.Graph) bool {
	same := true
	a.Edges(func(u, v int) bool {
		same = b.HasEdge(u, v)
		return same
	})
	return same
}
