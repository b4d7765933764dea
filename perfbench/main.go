// Command perfbench is the repository's benchmark. It runs one named
// workload against an in-process cdrwd stack — the daemon's HTTP handler on
// loopback sockets, single-process or a 3-shard cluster — checks every
// answer, and prints the end-to-end metrics as the last line of standard
// output. With --trace 1 it instead replays the workload's request list from
// one client, times each request at every layer's public entry point, and
// prints the per-layer metrics. Run it from the repository root:
//
//	bash perfbench/run.sh --workload cold-community --seed 1 --seconds 30 --trace 0
//
// The exit code is non-zero when any operation failed or any answer
// differed from its oracle. README.md lists the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
)

func main() {
	// The daemon's info logs (membership settled, node stopping) would
	// bury the benchmark's own report on standard error.
	slog.SetLogLoggerLevel(slog.LevelWarn)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name")
	seed := fl.Uint64("seed", 1, "workload seed: the request list is a pure function of it")
	seconds := fl.Int("seconds", 30, "length of the timed phase, in seconds")
	traced := fl.Int("trace", 0, "1 replays the list with per-layer timing instead of the timed phase")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	wl, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: bad arguments:", err)
		return 2
	}
	env := environment(wl, *seed, *traced == 1)
	envLine, _ := json.Marshal(map[string]any{"environment": env})
	fmt.Fprintln(stdout, string(envLine))

	var rep *report
	if *traced == 1 {
		rep, err = replay(wl, *seed, env)
	} else {
		rep, err = measure(wl, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stderr, "perfbench:", n)
	}
	attempted, failed := rep.t.counts()
	for _, r := range rep.t.reasons {
		fmt.Fprintln(stderr, "perfbench: failed:", r)
	}
	out := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: rep.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, its operation tally and notes for
// standard error.
type report struct {
	t       *tally
	metrics map[string]metric
	notes   []string
}

func (r *report) add(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// environment describes where and on what code the run happened.
func environment(wl *workload, seed uint64, traced bool) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+modified"
			}
		}
	}
	return map[string]any{
		"workload":      wl.name,
		"seed":          seed,
		"trace":         traced,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":     cpuModel(),
		"git_commit":    commit,
		"source_sha256": sourceDigest(),
	}
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var sourceDigest = sync.OnceValue(func() string {
	return digestSources(".")
})

// digestSources hashes the program's Go sources and module file under root
// (the benchmark's own directory and build outputs excluded), naming the
// code a run measured even where no version control is present.
func digestSources(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() {
			if path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || path == filepath.Join(root, "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	slices.Sort(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// jsonStrict decodes body into v, rejecting unknown fields.
func jsonStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
