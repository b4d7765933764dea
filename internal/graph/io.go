package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph in a plain text format: a header line
// "n m" followed by one "u v" line per undirected edge with u < v.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	var writeErr error
	g.Edges(func(u, v int) bool {
		if _, err := bw.WriteString(strconv.Itoa(u)); err != nil {
			writeErr = err
			return false
		}
		if err := bw.WriteByte(' '); err != nil {
			writeErr = err
			return false
		}
		if _, err := bw.WriteString(strconv.Itoa(v)); err != nil {
			writeErr = err
			return false
		}
		if err := bw.WriteByte('\n'); err != nil {
			writeErr = err
			return false
		}
		return true
	})
	if writeErr != nil {
		return writeErr
	}
	return bw.Flush()
}

// ReadEdgeList parses the format produced by WriteEdgeList. Duplicate edges
// and self-loops in the input are rejected, and so is any vertex id outside
// the header's [0, n) — checked on the parsed int, before the Builder
// narrows it to int32, so an id like 2³²+1 cannot wrap onto a valid vertex.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("graph: read header: %w", err)
		}
		return nil, fmt.Errorf("graph: empty input")
	}
	var n, m int
	if _, err := fmt.Sscanf(strings.TrimSpace(sc.Text()), "%d %d", &n, &m); err != nil {
		return nil, fmt.Errorf("graph: parse header %q: %w", sc.Text(), err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative header values n=%d m=%d", n, m)
	}
	b := NewBuilder(n)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: want two fields, got %q", line, text)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: line %d: %w: edge {%d,%d} with n=%d", line, ErrVertexOutOfRange, u, v, n)
		}
		b.AddEdge(u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scan: %w", err)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	if g.NumEdges() != m {
		return nil, fmt.Errorf("graph: header claims %d edges, parsed %d", m, g.NumEdges())
	}
	return g, nil
}
