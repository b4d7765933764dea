package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"cdrw"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSupportsPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{199, 0.95, false}, {200, 0.95, true}, {19, 0.5, false}, {20, 0.5, true}, {1000, 0.99, true}, {999, 0.99, false}} {
		if got := supportsPercentile(c.n, c.q); got != c.want {
			t.Errorf("supportsPercentile(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func testGraph(t *testing.T, wl *workload) *cdrw.Graph {
	t.Helper()
	ppm, err := cdrw.NewPPM(wl.ppm, cdrw.NewRNG(wl.graphSeed))
	if err != nil {
		t.Fatal(err)
	}
	return ppm.Graph
}

func firstOps(l *requestList, n int) []op {
	var ops []op
	for range n {
		o, ok := l.next()
		if !ok {
			break
		}
		ops = append(ops, o)
	}
	return ops
}

func TestRequestListReproducible(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		g := testGraph(t, wl)
		a, b := newRequestList(wl, g, 7), newRequestList(wl, g, 7)
		if !slices.Equal(a.warmSeeds(), b.warmSeeds()) {
			t.Errorf("%s: warm-up seeds differ for one seed", wl.name)
		}
		if !slices.Equal(firstOps(a, 2000), firstOps(b, 2000)) {
			t.Errorf("%s: seed 7 gave two different lists", wl.name)
		}
		c := newRequestList(wl, g, 8)
		if !slices.Equal(a.warmSeeds(), c.warmSeeds()) {
			t.Errorf("%s: warm-up seeds depend on the list seed", wl.name)
		}
		if slices.Equal(firstOps(newRequestList(wl, g, 7), 50), firstOps(c, 50)) {
			t.Errorf("%s: seeds 7 and 8 gave the same list", wl.name)
		}
	}
}

func TestHotList(t *testing.T) {
	wl, _ := findWorkload("hot-read-patch")
	l := newRequestList(wl, testGraph(t, wl), 3)
	hot := l.warmSeeds()
	if len(hot) != hotSetSize || hasDuplicate(slices.Sorted(slices.Values(hot))) {
		t.Fatalf("hot set of %d seeds with duplicates or wrong size", len(hot))
	}
	counts := map[int]int{}
	for _, o := range firstOps(l, 40*writeEvery) {
		if o.write != (o.index%writeEvery == writeEvery-1) {
			t.Fatalf("op %d: write=%v, want a write exactly every %d ops", o.index, o.write, writeEvery)
		}
		if !o.write {
			if !slices.Contains(hot, o.vertex) {
				t.Fatalf("op %d reads seed %d outside the hot set", o.index, o.vertex)
			}
			counts[o.vertex]++
		}
	}
	// Zipf: the most popular seed is read far more often than the median one.
	if top, mid := counts[hot[0]], counts[hot[hotSetSize/2]]; top < 5*mid {
		t.Errorf("hot[0] read %d times, hot[%d] %d times: not Zipf-skewed", top, hotSetSize/2, mid)
	}
}

func TestDistinctListNeverRepeats(t *testing.T) {
	for _, name := range []string{"cold-community", "cluster-congest"} {
		wl, _ := findWorkload(name)
		g := testGraph(t, wl)
		l := newRequestList(wl, g, 5)
		ops := firstOps(l, g.NumVertices()+10)
		if len(ops) != g.NumVertices()-warmSeeds {
			t.Fatalf("%s: %d reads before the list ran out, want %d", name, len(ops), g.NumVertices()-warmSeeds)
		}
		seen := map[int]bool{}
		for _, v := range l.warmSeeds() {
			seen[v] = true
		}
		for _, o := range ops {
			if o.write || seen[o.vertex] {
				t.Fatalf("%s: op %d reads seed %d twice or writes", name, o.index, o.vertex)
			}
			seen[o.vertex] = true
			if o.shard != o.index%wl.shards {
				t.Fatalf("%s: op %d sent to shard %d", name, o.index, o.shard)
			}
		}
	}
}

// TestPatchGenAlwaysValid applies every generated delta the way the daemon
// does: an add of a present edge or a delete of an absent one would be a
// 400, and Graph.ApplyDelta rejects exactly those.
func TestPatchGenAlwaysValid(t *testing.T) {
	wl, _ := findWorkload("hot-read-patch")
	base := testGraph(t, wl)
	l := newRequestList(wl, base, 11)
	g := base
	for i := range 500 {
		e, del := l.patch.next()
		adds, dels := []cdrw.Edge{e}, []cdrw.Edge(nil)
		if del {
			adds, dels = nil, adds
		}
		next, err := g.ApplyDelta(adds, dels)
		if err != nil {
			t.Fatalf("delta %d (%+v, delete=%v) rejected: %v", i, e, del, err)
		}
		g = next
		if d := g.NumEdges() - base.NumEdges(); d < 0 || d > maxAdded || d != len(l.patch.added) {
			t.Fatalf("delta %d: graph %d edges from the planted one, %d additions tracked", i, d, len(l.patch.added))
		}
	}
}

func TestParseAnswer(t *testing.T) {
	good := render(communityJSON{Graph: graphName, Community: []int{1, 4, 9}, Stats: statsJSON{Seed: 4, FinalSetSize: 3}})
	if _, err := parseAnswer(good, 4, 10); err != nil {
		t.Fatalf("well-formed answer rejected: %v", err)
	}
	for name, body := range map[string]string{
		"not json":      `{"graph":`,
		"unknown field": `{"graph":"g","cached":false,"community":[4],"stats":{"seed":4,"final_set_size":1},"x":1}`,
		"other seed":    `{"graph":"g","community":[4],"stats":{"seed":5,"final_set_size":1}}`,
		"size mismatch": `{"graph":"g","community":[4,5],"stats":{"seed":4,"final_set_size":1}}`,
		"unsorted":      `{"graph":"g","community":[5,4],"stats":{"seed":4,"final_set_size":2}}`,
		"duplicate":     `{"graph":"g","community":[4,4],"stats":{"seed":4,"final_set_size":2}}`,
		"out of range":  `{"graph":"g","community":[4,10],"stats":{"seed":4,"final_set_size":2}}`,
		"seed missing":  `{"graph":"g","community":[3,5],"stats":{"seed":4,"final_set_size":2}}`,
		"other graph":   `{"graph":"h","community":[4],"stats":{"seed":4,"final_set_size":1}}`,
	} {
		if _, err := parseAnswer([]byte(body), 4, 10); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTally(t *testing.T) {
	var tl tally
	for i := range 20 {
		tl.attempt()
		if i%2 == 0 {
			tl.fail(fmt.Sprint("op ", i))
		}
	}
	if a, f := tl.counts(); a != 20 || f != 10 {
		t.Fatalf("counts = %d attempted, %d failed; want 20, 10", a, f)
	}
	if len(tl.reasons) != maxReasons {
		t.Fatalf("kept %d reasons, want %d", len(tl.reasons), maxReasons)
	}
}

// TestFailureAccounting drives the load loop and the oracle check against
// a fake daemon: every non-2xx status, malformed answer and answer that
// differs from the oracle must count as a failed operation, and correct
// answers must not.
func TestFailureAccounting(t *testing.T) {
	wl := &workload{name: "test", ppm: cdrw.PPMConfig{N: 64, R: 2, P: 0.5, Q: 0.05}, graphSeed: 1, shards: 1}
	ppm, err := cdrw.NewPPM(wl.ppm, cdrw.NewRNG(wl.graphSeed))
	if err != nil {
		t.Fatal(err)
	}
	or, err := newOracle(wl, ppm.Graph)
	if err != nil {
		t.Fatal(err)
	}
	list := newRequestList(wl, ppm.Graph, 1)
	bad := map[int]string{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct{ Seed int }
		if err := jsonStrict(readAll(r), &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch bad[req.Seed] {
		case "status":
			http.Error(w, "boom", http.StatusInternalServerError)
		case "malformed":
			fmt.Fprint(w, `{"graph":"g"}`)
		case "wrong":
			// Well-formed, but not what the oracle answers.
			w.Write(render(communityJSON{Graph: graphName, Community: []int{req.Seed}, Stats: statsJSON{Seed: req.Seed, FinalSetSize: 1}}))
		default:
			body, err := or.expect(r.Context(), req.Seed, false)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Write(body)
		}
	}))
	defer srv.Close()
	// The first list read is spot-checked against the oracle; three later
	// reads fail in the three other ways.
	bad[list.perm[0]] = "wrong"
	bad[list.perm[3]] = "status"
	bad[list.perm[4]] = "malformed"
	bad[list.perm[5]] = "status"

	d := &deployment{wl: wl, ppm: ppm, list: list, st: &stack{urls: []string{srv.URL}}}
	d.blocks = make([][]int, wl.ppm.R)
	for v, b := range ppm.Truth {
		d.blocks[b] = append(d.blocks[b], v)
	}
	tl := &tally{}
	c := newClient()
	lr := runLoad(d, c, tl, 10*time.Second) // the list runs out first
	if err := checkAfterLoad(d, lr, c, tl); err != nil {
		t.Fatal(err)
	}
	attempted, failed := tl.counts()
	if want := len(list.perm); attempted != want {
		t.Errorf("attempted %d, want %d", attempted, want)
	}
	if failed != 4 {
		t.Errorf("failed %d, want 4 (two statuses, one malformed, one oracle mismatch): %q", failed, tl.reasons)
	}
	if lr.done != len(list.perm)-3 {
		t.Errorf("%d reads answered, want %d", lr.done, len(list.perm)-3)
	}
}

func readAll(r *http.Request) []byte {
	var b bytes.Buffer
	_, _ = b.ReadFrom(r.Body)
	return b.Bytes()
}

func TestLedgerFlagsDrift(t *testing.T) {
	t.Chdir(t.TempDir())
	wl := &workload{name: "ledger-test"}
	counts := workCounts{WalkLength: 5, SizesChecked: 40, FrozenAt: 4, ClusterRounds: -1, LinkWords: -1, LinkBytes: -1, CongestRounds: -1, CongestMessages: -1}
	tl := &tally{}
	checkLedger(wl, []work{{1, counts}, {2, counts}}, tl)
	withWire := counts
	withWire.LinkWords = 99
	checkLedger(wl, []work{{1, withWire}}, tl) // a newly observed count is not a drift
	if _, f := tl.counts(); f != 0 {
		t.Fatalf("repeated counts flagged: %q", tl.reasons)
	}
	drifted := withWire
	drifted.LinkWords = 100
	checkLedger(wl, []work{{1, drifted}, {2, counts}}, tl)
	if _, f := tl.counts(); f != 1 || !strings.Contains(tl.reasons[0], "link_words 99 then 100") {
		t.Fatalf("drift not flagged once: %q", tl.reasons)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cold-community", "--trace", "2"},
		{"--workload", "cold-community", "--seconds", "0"},
	} {
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("bad arguments printed a result: %q", out.String())
	}
}
