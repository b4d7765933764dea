package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
)

// workCounts is the work one read costs. On the distinct-seed workloads it
// is a pure function of the graph and the seed, so it must repeat exactly
// from one run to the next; -1 marks a count the run did not observe.
type workCounts struct {
	WalkLength      int   `json:"walk_length"`
	SizesChecked    int   `json:"sizes_checked"`
	FrozenAt        int   `json:"frozen_at"`
	ClusterRounds   int64 `json:"cluster_rounds"`
	LinkWords       int64 `json:"link_words"`
	LinkBytes       int64 `json:"link_bytes"`
	CongestRounds   int64 `json:"congest_rounds"`
	CongestMessages int64 `json:"congest_messages"`
}

// drift compares two observations of one seed's work and names the first
// count both observed that differs.
func (w workCounts) drift(o workCounts) string {
	pairs := []struct {
		name string
		a, b int64
	}{
		{"walk_length", int64(w.WalkLength), int64(o.WalkLength)},
		{"sizes_checked", int64(w.SizesChecked), int64(o.SizesChecked)},
		{"frozen_at", int64(w.FrozenAt), int64(o.FrozenAt)},
		{"cluster_rounds", w.ClusterRounds, o.ClusterRounds},
		{"link_words", w.LinkWords, o.LinkWords},
		{"link_bytes", w.LinkBytes, o.LinkBytes},
		{"congest_rounds", w.CongestRounds, o.CongestRounds},
		{"congest_messages", w.CongestMessages, o.CongestMessages},
	}
	for _, p := range pairs {
		if p.a >= 0 && p.b >= 0 && p.a != p.b {
			return fmt.Sprintf("%s %d then %d", p.name, p.a, p.b)
		}
	}
	return ""
}

// merge fills the counts w has not observed from o.
func (w workCounts) merge(o workCounts) workCounts {
	fill := func(a *int64, b int64) {
		if *a < 0 {
			*a = b
		}
	}
	fill(&w.ClusterRounds, o.ClusterRounds)
	fill(&w.LinkWords, o.LinkWords)
	fill(&w.LinkBytes, o.LinkBytes)
	fill(&w.CongestRounds, o.CongestRounds)
	fill(&w.CongestMessages, o.CongestMessages)
	return w
}

// ledgerPath is where the work counts of one workload are kept between
// runs. The name carries the digest of the program's sources, so counts
// are only compared between runs of the same code.
func ledgerPath(wl *workload) string {
	return filepath.Join(".bench_build", "ledger", wl.name+"-"+sourceDigest()[:16]+".json")
}

// checkLedger compares this run's per-seed work counts with each other and
// with every earlier run of the same code, counts each drift as a failed
// operation, and records the union for the next run.
func checkLedger(wl *workload, works []work, t *tally) {
	path := ledgerPath(wl)
	seen := map[string]workCounts{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &seen); err != nil {
			t.fail(fmt.Sprintf("ledger %s unreadable: %v", path, err))
			return
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		t.fail(fmt.Sprintf("ledger %s: %v", path, err))
		return
	}
	for _, w := range works {
		key := strconv.Itoa(w.vertex)
		if old, ok := seen[key]; ok {
			if d := old.drift(w.counts); d != "" {
				t.fail(fmt.Sprintf("seed %d: work drifted between runs: %s", w.vertex, d))
			}
			seen[key] = old.merge(w.counts)
			continue
		}
		seen[key] = w.counts
	}
	b, err := json.Marshal(seen)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		tmp := path + ".tmp"
		if err = os.WriteFile(tmp, b, 0o644); err == nil {
			err = os.Rename(tmp, path)
		}
	}
	if err != nil {
		t.fail(fmt.Sprintf("ledger %s not written: %v", path, err))
	}
}
