package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"cdrw"
)

// span is one timed call of the traced replay: a request's root span, or a
// call into one layer's public entry point on behalf of that request. All
// spans of a request share its ID, which is also the X-Request-Id the
// daemon saw.
type span struct {
	Request string  `json:"request"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a request's root span
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"` // offset from the replay's start
	EndMS   float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the replay ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) start(req, name string, parent int) int {
	tr.spans = append(tr.spans, span{Request: req, ID: len(tr.spans), Parent: parent, Name: name,
		StartMS: ms(time.Since(tr.t0))})
	return len(tr.spans) - 1
}

// end closes span id and returns its length in milliseconds.
func (tr *tracer) end(id int) float64 {
	s := &tr.spans[id]
	s.EndMS = ms(time.Since(tr.t0))
	return s.EndMS - s.StartMS
}

// layerSamples are the per-request observations of a replay, one slice per
// per-layer metric.
type layerSamples struct {
	http, registry, overhead, core, solo, wire         []float64
	walk, sweep, flood, peerPull, respBytes            []float64
	walkLen, sizes, frozen                             []float64
	rounds, messages, linkWords, linkBytes, clRounds   []float64
	patch, swap, kept, reverified, evicted, applyDelta []float64
	// hits counts replayed reads served from the cache, stale those of them
	// that differ from a fresh detection on the serving graph.
	hits, stale int
	// nesting holds (core, registry, http) latencies of reads the served
	// cache missed, where all three layers did the same detection.
	nesting [][3]float64
}

// replayBudget bounds a replay's wall time so a run always ends in time; a
// replay that runs out of it fails the run.
const replayBudget = 100 * time.Second

// replay is the traced run: set up once, replay the first traceOps requests
// of the list from one client — each first over HTTP, then at every lower
// layer — and check each HTTP answer byte for byte against its oracle.
func replay(wl *workload, seed uint64, env map[string]any) (*report, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	t := &tally{}
	d, err := setUp(wl, seed, c, t)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.st.close()
	ctx := context.Background()
	opts := wl.options()

	// The shadow registry serves the same graph with the same warm-up and
	// sees the same requests and deltas, but no HTTP: its time is the
	// serving layer's, and the served cache never answers its calls.
	shadow := cdrw.NewGraphRegistry(0, nil)
	if err := shadow.Register(graphName, d.ppm.Graph); err != nil {
		return nil, err
	}
	for _, v := range d.list.warmSeeds() {
		if _, _, _, err := shadow.DetectCommunity(ctx, graphName, v, opts...); err != nil {
			return nil, err
		}
	}
	or, err := newOracle(wl, d.ppm.Graph)
	if err != nil {
		return nil, err
	}
	// memo holds the fresh detection per seed on the current graph
	// generation, so repeated hot reads are checked without re-detecting.
	memo := map[int]communityJSON{}
	model := &cacheModel{lines: map[int]communityJSON{}}
	if wl.hot {
		for _, v := range d.list.warmSeeds() {
			comm, st, err := or.detect(ctx, v)
			if err != nil {
				return nil, err
			}
			memo[v] = communityJSON{Graph: graphName, Community: comm, Stats: st}
			model.lines[v] = memo[v]
		}
	}
	metricsBefore := scrapeAll(c, d.st.urls)
	snap0 := serveTotals(d.st)

	var (
		s     layerSamples
		works []work
		buf   bytes.Buffer
	)
	tr := &tracer{t0: time.Now()}
	replayed := 0
	for i := 0; i < wl.traceOps && time.Since(tr.t0) < replayBudget; i++ {
		o, ok := d.list.next()
		if !ok {
			break
		}
		replayed++
		id := fmt.Sprintf("perfbench-%s-%d-%d", wl.name, seed, i)
		root := tr.start(id, "request", -1)
		t.attempt()
		url := d.st.urls[o.shard] + "/graphs/" + graphName
		if o.write {
			sp := tr.start(id, "http.patch", root)
			status, _, err := send(c, http.MethodPatch, url+"/edges", patchBody(o), id, &buf)
			s.patch = append(s.patch, tr.end(sp))
			dj, err := parseDelta(buf.Bytes(), status, err, o)
			if err != nil {
				t.fail(err.Error())
				tr.end(root)
				continue
			}
			adds, dels := []cdrw.Edge{o.edge}, []cdrw.Edge(nil)
			if o.del {
				adds, dels = nil, adds
			}
			sp = tr.start(id, "serve.apply_delta", root)
			_, err = shadow.ApplyDelta(ctx, graphName, adds, dels)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("shadow registry delta: %w", err)
			}
			sp = tr.start(id, "graph.apply_delta", root)
			g, err := or.g.ApplyDelta(adds, dels)
			s.applyDelta = append(s.applyDelta, tr.end(sp))
			if err != nil {
				return nil, fmt.Errorf("graph delta: %w", err)
			}
			if or, err = newOracle(wl, g); err != nil {
				return nil, err
			}
			clear(memo)
			kept, reverified, evicted, err := model.applyDelta(ctx, or.det, o.edge)
			if err != nil {
				return nil, err
			}
			if dj.Kept != kept || dj.Reverified != reverified || dj.Evicted != evicted {
				t.fail(fmt.Sprintf("patch %+v: answered %+v, the cache contract gives kept %d, reverified %d, evicted %d",
					o.edge, dj, kept, reverified, evicted))
			}
			s.swap = append(s.swap, dj.SwapSeconds*1e3)
			s.kept = append(s.kept, float64(dj.Kept))
			s.reverified = append(s.reverified, float64(dj.Reverified))
			s.evicted = append(s.evicted, float64(dj.Evicted))
			tr.end(root)
			continue
		}

		var before clusterCounters
		if wl.shards > 1 {
			before = d.st.clusterCounters()
		}
		sp := tr.start(id, "http", root)
		status, _, err := send(c, http.MethodPost, url+"/community", wl.requestBody(o.vertex), id, &buf)
		httpMS := tr.end(sp)
		wire := d.st.clusterCounters().sub(before)
		if err != nil || status != http.StatusOK {
			t.fail(fmt.Sprintf("read seed %d: status %d, %v: %.200s", o.vertex, status, err, buf.Bytes()))
			tr.end(root)
			continue
		}
		body := bytes.Clone(buf.Bytes())
		a, err := parseAnswer(body, o.vertex, or.g.NumVertices())
		if err != nil {
			t.fail(err.Error())
			tr.end(root)
			continue
		}
		s.http = append(s.http, httpMS)
		s.respBytes = append(s.respBytes, float64(len(body)))
		ph, err := tracePhases(c, d.st.urls[o.shard], id)
		if err != nil {
			return nil, err
		}
		s.walk = append(s.walk, ph["walk"]*1e3)
		s.sweep = append(s.sweep, ph["sweep"]*1e3)
		s.peerPull = append(s.peerPull, ph["peer_pull"]*1e3)

		sp = tr.start(id, "serve.registry", root)
		if _, _, _, err := shadow.DetectCommunity(ctx, graphName, o.vertex, opts...); err != nil {
			return nil, fmt.Errorf("shadow registry: %w", err)
		}
		regMS := tr.end(sp)
		s.registry = append(s.registry, regMS)
		s.overhead = append(s.overhead, httpMS-regMS)

		fresh, seen := memo[o.vertex]
		coreMS := -1.0
		if !seen {
			sp = tr.start(id, "core.detect", root)
			comm, st, err := or.detect(ctx, o.vertex)
			coreMS = tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("detector: %w", err)
			}
			s.core = append(s.core, coreMS)
			s.walkLen = append(s.walkLen, float64(st.WalkLength))
			s.sizes = append(s.sizes, float64(st.SizesChecked))
			s.frozen = append(s.frozen, float64(st.FrozenAt))
			fresh = communityJSON{Graph: graphName, Community: comm, Stats: st}
			wc := workCounts{
				WalkLength: a.Stats.WalkLength, SizesChecked: a.Stats.SizesChecked, FrozenAt: a.Stats.FrozenAt,
				ClusterRounds: -1, LinkWords: -1, LinkBytes: -1, CongestRounds: -1, CongestMessages: -1,
			}
			if wl.engine == "congest" {
				sp = tr.start(id, "congest.solo", root)
				sr, err := or.solo(o.vertex)
				soloMS := tr.end(sp)
				if err != nil {
					return nil, fmt.Errorf("congest: %w", err)
				}
				s.solo = append(s.solo, soloMS)
				s.wire = append(s.wire, httpMS-soloMS)
				s.flood = append(s.flood, sr.floodMS)
				s.rounds = append(s.rounds, float64(sr.rounds))
				s.messages = append(s.messages, float64(sr.messages))
				s.linkWords = append(s.linkWords, float64(wire.words))
				s.linkBytes = append(s.linkBytes, float64(wire.bytes))
				s.clRounds = append(s.clRounds, float64(wire.rounds))
				wc.ClusterRounds, wc.LinkWords, wc.LinkBytes = wire.rounds, wire.words, wire.bytes
				wc.CongestRounds, wc.CongestMessages = sr.rounds, sr.messages
				fresh = communityJSON{Graph: graphName, Community: sr.community, Stats: sr.stats}
			}
			if !wl.hot {
				works = append(works, work{o.vertex, wc})
			}
			memo[o.vertex] = fresh
		}
		// A miss must answer as a fresh detection on the serving graph. A
		// hit must serve the line the documented cache contract says it
		// holds, which after a PATCH may differ from a fresh detection.
		want := fresh
		if wl.hot {
			if a.Cached {
				line, ok := model.lines[o.vertex]
				if !ok {
					t.fail(fmt.Sprintf("read seed %d: served from a cache line the cache cannot hold", o.vertex))
				}
				want = line
				s.hits++
				if !slices.Equal(line.Community, fresh.Community) || line.Stats != fresh.Stats {
					s.stale++
				}
			} else {
				model.lines[o.vertex] = fresh
			}
		}
		want.Cached = a.Cached
		if !bytes.Equal(body, render(want)) {
			t.fail(fmt.Sprintf("read seed %d: HTTP answer differs from the oracle", o.vertex))
		}
		if !a.Cached && coreMS >= 0 {
			s.nesting = append(s.nesting, [3]float64{coreMS, regMS, httpMS})
		}
		tr.end(root)
	}
	metricsAfter := scrapeAll(c, d.st.urls)
	if replayed < wl.traceOps {
		return nil, fmt.Errorf("replay stopped after %d of %d requests", replayed, wl.traceOps)
	}
	if !wl.hot {
		checkLedger(wl, works, t)
	}

	rep := &report{t: t}
	layerMetrics(rep, d, &s, snap0, serveTotals(d.st), metricsBefore, metricsAfter)
	nestingNote(rep, s.nesting)
	path, err := writeSpans(wl, seed, env, tr.spans)
	if err != nil {
		return nil, err
	}
	rep.note("replayed %d requests, %d spans written to %s", replayed, len(tr.spans), path)
	return rep, nil
}

// cacheModel is the served cache as docs/ARCHITECTURE.md specifies it,
// rebuilt from the layers below it: a line is a seed's detection on the
// generation it was computed on; a delta keeps the lines whose community
// contains no endpoint of the delta, re-verifies the others with
// Detector.ReverifyCommunity on the new graph and keeps those that pass,
// and evicts the rest (a line frozen at step 0 has nothing to re-verify).
type cacheModel struct {
	lines map[int]communityJSON
}

// applyDelta moves the model across a one-edge delta; det detects on the
// graph after it.
func (m *cacheModel) applyDelta(ctx context.Context, det *cdrw.Detector, e cdrw.Edge) (kept, reverified, evicted int, err error) {
	for v, line := range m.lines {
		_, hasU := slices.BinarySearch(line.Community, e.U)
		_, hasV := slices.BinarySearch(line.Community, e.V)
		switch {
		case !hasU && !hasV:
			kept++
			continue
		case line.Stats.FrozenAt > 0:
			ok, err := det.ReverifyCommunity(ctx, v, line.Community, line.Stats.FrozenAt)
			if err != nil {
				return 0, 0, 0, err
			}
			if ok {
				reverified++
				continue
			}
		}
		evicted++
		delete(m.lines, v)
	}
	return kept, reverified, evicted, nil
}

// serveTotals sums the serving counters of every shard.
func serveTotals(st *stack) cdrw.ServeSnapshot {
	var sum cdrw.ServeSnapshot
	for _, m := range st.mets {
		s := m.Snapshot()
		sum.Requests += s.Requests
		sum.CacheHits += s.CacheHits
		sum.CacheMisses += s.CacheMisses
		sum.Collapsed += s.Collapsed
		sum.PoolWaits += s.PoolWaits
	}
	return sum
}

// layerMetrics turns the replay's samples into the per-layer metrics.
// Latencies are medians over the requests that made the call; phase times
// and counts are means per request, so they add up across requests.
func layerMetrics(rep *report, d *deployment, s *layerSamples, snap0, snap1 cdrw.ServeSnapshot, before, after map[string]float64) {
	rep.add("gen.ppm_s", d.gen.Seconds(), "s")
	rep.add("serve.register_s", median(msSlice(d.uploads))/1e3, "s")
	rep.add("http.latency_ms", median(s.http), "ms")
	rep.add("rw.walk_ms", mean(s.walk), "ms")
	rep.add("rw.sweep_ms", mean(s.sweep), "ms")
	rep.add("core.detect_ms", median(s.core), "ms")
	rep.add("core.walk_length", mean(s.walkLen), "count")
	rep.add("core.sizes_checked", mean(s.sizes), "count")
	rep.add("core.frozen_at", mean(s.frozen), "count")
	rep.add("serve.registry_ms", median(s.registry), "ms")
	rep.add("serve.http_overhead_ms", median(s.overhead), "ms")
	rep.add("serve.response_bytes", mean(s.respBytes), "B")

	hits, misses := snap1.CacheHits-snap0.CacheHits, snap1.CacheMisses-snap0.CacheMisses
	requests := float64(snap1.Requests - snap0.Requests)
	rep.add("serve.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	rep.add("serve.pool_waits", ratio(float64(snap1.PoolWaits-snap0.PoolWaits), requests), "count")
	rep.add("serve.collapsed", ratio(float64(snap1.Collapsed-snap0.Collapsed), requests), "count")

	rep.add("serve.stale_hit_ratio", ratio(float64(s.stale), float64(s.hits)), "ratio")
	rep.add("http.patch_ms", median(s.patch), "ms")
	rep.add("serve.swap_ms", median(s.swap), "ms")
	rep.add("serve.lines_kept", mean(s.kept), "count")
	rep.add("serve.lines_reverified", mean(s.reverified), "count")
	rep.add("serve.lines_evicted", mean(s.evicted), "count")
	rep.add("graph.apply_delta_ms", median(s.applyDelta), "ms")

	rep.add("congest.solo_ms", median(s.solo), "ms")
	rep.add("congest.rounds", mean(s.rounds), "count")
	rep.add("congest.messages", mean(s.messages), "count")
	rep.add("congest.flood_ms", mean(s.flood), "ms")

	reads := float64(len(s.http))
	rep.add("cluster.wire_ms", median(s.wire), "ms")
	rep.add("cluster.link_words", mean(s.linkWords), "count")
	rep.add("cluster.link_bytes", mean(s.linkBytes), "B")
	rep.add("cluster.bytes_per_word", ratio(sum(s.linkBytes), sum(s.linkWords)), "B")
	rep.add("cluster.coord_bytes", ratio(after["cdrw_cluster_coord_bytes_total"]-before["cdrw_cluster_coord_bytes_total"], reads), "B")
	rep.add("cluster.rounds", mean(s.clRounds), "count")
	rep.add("cluster.retries", ratio(after["cdrw_cluster_pull_retries_total"]-before["cdrw_cluster_pull_retries_total"], reads), "count")
	rep.add("cluster.peer_pull_ms", mean(s.peerPull), "ms")
	for _, stage := range []string{"freeze", "pull", "gather"} {
		rep.add("cluster.round_"+stage+"_ms", after[`cdrw_cluster_round_seconds{stage="`+stage+`",quantile="0.5"}`]*1e3, "ms")
	}
}

// nestingNote reports whether the layers nest on the reads all three
// layers computed: the Detector alone, the registry around it, and the
// HTTP request around that.
func nestingNote(rep *report, rows [][3]float64) {
	if len(rows) == 0 {
		return
	}
	var core, reg, web []float64
	for _, r := range rows {
		core, reg, web = append(core, r[0]), append(reg, r[1]), append(web, r[2])
	}
	c, r, h := median(core), median(reg), median(web)
	// Each layer runs the detection separately, so medians that differ by
	// less than nestSlack are within run-to-run noise.
	verdict := "nest"
	switch {
	case c > r*(1+nestSlack) || r > h*(1+nestSlack):
		verdict = "do not nest"
	case c > r || r > h:
		verdict = fmt.Sprintf("nest within %.0f%%", nestSlack*100)
	}
	rep.note("layers %s on %d cache-miss reads: core.detect %.3f ms, serve.registry %.3f ms, http %.3f ms (medians)", verdict, len(rows), c, r, h)
}

// nestSlack is the relative slack of the nesting check: a 100-300 ms
// detection varies by about 5% between runs, and the HTTP and registry
// layers add well under 1%.
const nestSlack = 0.01

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// tracePhases fetches the daemon's own trace of request id and returns its
// per-phase seconds.
func tracePhases(c *http.Client, shardURL, id string) (map[string]float64, error) {
	status, body, err := get(c, shardURL+"/debug/traces?id="+id)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("trace %s: status %d, %v", id, status, err)
	}
	var snap struct {
		PhaseSeconds map[string]float64 `json:"phase_seconds"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("trace %s: %w", id, err)
	}
	return snap.PhaseSeconds, nil
}

// scrapeAll reads every shard's /metrics and sums each series over the
// shards, except quantile series, which take the median over shards.
func scrapeAll(c *http.Client, urls []string) map[string]float64 {
	out := map[string]float64{}
	quantiles := map[string][]float64{}
	for _, u := range urls {
		status, body, err := get(c, u+"/metrics")
		if err != nil || status != http.StatusOK {
			continue
		}
		for series, v := range parseMetrics(body) {
			if strings.Contains(series, "quantile=") {
				quantiles[series] = append(quantiles[series], v)
				continue
			}
			out[series] += v
		}
	}
	for series, vs := range quantiles {
		out[series] = median(vs)
	}
	return out
}

// parseMetrics reads the Prometheus text exposition format into
// series → value.
func parseMetrics(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// writeSpans writes the replay's spans, with the environment, under the
// build directory of the checkout.
func writeSpans(wl *workload, seed uint64, env map[string]any, spans []span) (string, error) {
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", wl.name, seed))
	b, err := json.Marshal(map[string]any{"environment": env, "spans": spans})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
