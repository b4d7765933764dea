package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdrw"
)

func TestRunGeneratedCore(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "256", "-r", "2", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "generated PPM") {
		t.Fatalf("missing generation banner: %s", s)
	}
	if !strings.Contains(s, "F-score:") {
		t.Fatalf("missing F-score line: %s", s)
	}
	if !strings.Contains(s, "community 0:") {
		t.Fatalf("missing community report: %s", s)
	}
}

func TestRunGeneratedParallel(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "256", "-r", "2", "-engine", "parallel", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "community 0:") {
		t.Fatalf("missing community report: %s", s)
	}
	if !strings.Contains(s, "F-score:") {
		t.Fatalf("missing F-score line: %s", s)
	}
}

func TestRunGeneratedCongest(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "128", "-r", "2", "-engine", "congest", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "rounds=") || !strings.Contains(s, "messages=") {
		t.Fatalf("missing CONGEST cost report: %s", s)
	}
	if !strings.Contains(s, "total CONGEST cost") {
		t.Fatalf("missing total cost: %s", s)
	}
}

func TestRunFromEdgeList(t *testing.T) {
	// Write a small PPM to disk and read it back through -in.
	ppm, err := cdrw.NewPPM(cdrw.PPMConfig{N: 128, R: 2, P: 0.2, Q: 0.01}, cdrw.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cdrw.WriteEdgeList(f, ppm.Graph); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "community 0:") {
		t.Fatalf("no communities reported: %s", out.String())
	}
	// No ground truth for -in graphs: no F-score line.
	if strings.Contains(out.String(), "F-score") {
		t.Fatalf("F-score reported without ground truth: %s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "10", "-r", "3"}, &out); err == nil {
		t.Fatal("indivisible n/r accepted")
	}
	if err := run([]string{"-engine", "warp"}, &out); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if err := run([]string{"-in", "/nonexistent/file"}, &out); err == nil {
		t.Fatal("missing input file accepted")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-n", "128", "-r", "2", "-delta", "NaN"}, &out); err == nil {
		t.Fatal("NaN delta accepted")
	}
}

func TestRunExplicitDelta(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "128", "-r", "2", "-delta", "0.2"}, &out); err != nil {
		t.Fatal(err)
	}
}

func TestLog2Helper(t *testing.T) {
	cases := map[int]float64{1: 0, 2: 1, 1024: 10, 1000: 10}
	for n, want := range cases {
		if got := log2(n); got != want {
			t.Errorf("log2(%d) = %v, want %v", n, got, want)
		}
	}
}
