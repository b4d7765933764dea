package seedpool

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cdrw/internal/graph"
)

// path builds the path 0-1-…-(n−1).
func path(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPoolComponents: the tail's component labelling respects the assigned
// mask — assigned vertices neither receive labels nor connect pool pieces.
func TestPoolComponents(t *testing.T) {
	// Path 0-1-2-3-4: assigning the middle vertex splits the pool in two.
	g := path(t, 5)
	assigned := make([]bool, 5)
	comp := make([]int, 5)
	var queue []int
	if comps := poolComponents(g, []int{0, 1, 2, 3, 4}, assigned, comp, queue); comps != 1 {
		t.Fatalf("intact path: %d components, want 1", comps)
	}
	assigned[2] = true
	pool := []int{0, 1, 3, 4}
	if comps := poolComponents(g, pool, assigned, comp, queue); comps != 2 {
		t.Fatalf("split path: %d components, want 2", comps)
	}
	if comp[0] != comp[1] || comp[3] != comp[4] || comp[0] == comp[3] {
		t.Fatalf("split path labels %v, want {0,1} and {3,4} in distinct components", comp)
	}
}

// neighbourhoods detects each seed's closed neighbourhood, recording the
// super-steps it was asked for.
type neighbourhoods struct {
	g     *graph.Graph
	steps [][]int
}

func (nb *neighbourhoods) detect(seeds []int) ([]Found[int], error) {
	nb.steps = append(nb.steps, append([]int(nil), seeds...))
	out := make([]Found[int], len(seeds))
	for i, s := range seeds {
		com := []int{s}
		for _, w := range nb.g.Neighbors(s) {
			com = append(com, int(w))
		}
		out[i] = Found[int]{Community: com, Stats: s}
	}
	return out, nil
}

// TestRunPartitionsAndEmitsInOrder: every run, batched or not, emits its
// detections in draw order with the seed's stats, the Assigned sets
// partition the vertex set, and a retained Scratch reproduces the run.
func TestRunPartitionsAndEmitsInOrder(t *testing.T) {
	g := path(t, 40)
	for _, batch := range []int{1, 3} {
		var sc Scratch
		var runs [2][]Detection[int]
		for k := range runs {
			nb := &neighbourhoods{g: g}
			err := Run(context.Background(), g, Config{Seed: 7, Batch: batch, MinSize: 3}, &sc, nb.detect,
				func(det Detection[int]) bool {
					runs[k] = append(runs[k], det)
					return true
				})
			if err != nil {
				t.Fatal(err)
			}
			var order []int
			for _, step := range nb.steps {
				if batch == 1 && len(step) != 1 {
					t.Fatalf("batch 1 drew %v", step)
				}
				order = append(order, step...)
			}
			seen := make([]bool, g.NumVertices())
			for i, det := range runs[k] {
				if det.Stats != order[i] {
					t.Fatalf("batch %d: detection %d has seed %d, draw order %v", batch, i, det.Stats, order)
				}
				for _, v := range det.Assigned {
					if seen[v] {
						t.Fatalf("batch %d: vertex %d assigned twice", batch, v)
					}
					seen[v] = true
				}
			}
			for v, ok := range seen {
				if !ok {
					t.Fatalf("batch %d: vertex %d unassigned", batch, v)
				}
			}
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Fatalf("batch %d: rerun on retained scratch differs", batch)
		}
	}
}

// TestRunStopsAndFails: emit returning false ends the run at once without
// error; detect's error and a cancelled context come back unwrapped.
func TestRunStopsAndFails(t *testing.T) {
	g := path(t, 30)
	nb := &neighbourhoods{g: g}
	emitted := 0
	err := Run(context.Background(), g, Config{Seed: 1, Batch: 3, MinSize: 2}, &Scratch{}, nb.detect,
		func(Detection[int]) bool {
			emitted++
			return false
		})
	if err != nil || emitted != 1 || len(nb.steps) != 1 {
		t.Fatalf("stopped run: err %v, %d emitted, %d super-steps; want nil, 1, 1", err, emitted, len(nb.steps))
	}

	boom := errors.New("boom")
	err = Run(context.Background(), g, Config{Seed: 1}, &Scratch{},
		func([]int) ([]Found[int], error) { return nil, boom },
		func(Detection[int]) bool { return true })
	if err != boom {
		t.Fatalf("detect failure returned %v, want %v", err, boom)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = Run(ctx, g, Config{Seed: 1}, &Scratch{}, nb.detect, func(Detection[int]) bool { return true })
	if err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want %v", err, context.Canceled)
	}
}
