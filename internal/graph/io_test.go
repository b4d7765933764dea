package graph

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"cdrw/internal/rng"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := complete(t, 6)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed size: n=%d m=%d", back.NumVertices(), back.NumEdges())
	}
	g.Edges(func(u, v int) bool {
		if !back.HasEdge(u, v) {
			t.Errorf("edge %d-%d lost in round trip", u, v)
		}
		return true
	})
}

func TestEdgeListRoundTripRandom(t *testing.T) {
	// Property: any random graph survives a write/read cycle unchanged.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(40)
		b := NewDedupBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			return false
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			return false
		}
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			return false
		}
		ok := true
		g.Edges(func(u, v int) bool {
			if !back.HasEdge(u, v) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"bad header", "hello\n"},
		{"negative header", "-1 0\n"},
		{"bad field count", "2 1\n0 1 2\n"},
		{"non-numeric", "2 1\nzero one\n"},
		{"edge count mismatch", "3 5\n0 1\n"},
		{"out of range", "2 1\n0 7\n"},
		{"self loop", "2 1\n1 1\n"},
		{"duplicate", "3 2\n0 1\n1 0\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(tc.input)); err == nil {
				t.Fatalf("input %q accepted", tc.input)
			}
		})
	}
}

// TestReadEdgeListRejectsWrappingIDs: an id that only lands in [0, n) after
// narrowing to int32 (2³²+1 wraps to 1) must be rejected with the line
// number, not accepted as edge {1,2}.
func TestReadEdgeListRejectsWrappingIDs(t *testing.T) {
	_, err := ReadEdgeList(strings.NewReader("3 1\n4294967297 2\n"))
	if !errors.Is(err, ErrVertexOutOfRange) {
		t.Fatalf("got %v, want ErrVertexOutOfRange", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %q does not name line 2", err)
	}
}

func TestReadEdgeListSkipsCommentsAndBlanks(t *testing.T) {
	in := "3 2\n# comment\n0 1\n\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2", g.NumEdges())
	}
}
