package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"cdrw"
)

// graphName is the name every workload registers its graph under.
const graphName = "g"

// stack is one in-process cdrwd deployment: per shard a registry, its
// serving counters, an optional cluster node and an HTTP server on a
// loopback listener — assembled as examples/cluster assembles it.
type stack struct {
	urls   []string
	regs   []*cdrw.GraphRegistry
	mets   []*cdrw.ServeMetrics
	nodes  []*cdrw.ClusterNode
	srvs   []*http.Server
	served sync.WaitGroup
}

// startStack listens on shards loopback sockets and serves a registry on
// each; with more than one shard they form a cluster whose membership is
// complete from the start, so it settles without gossip rounds.
func startStack(shards int) (*stack, error) {
	st := &stack{}
	lns := make([]net.Listener, shards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		st.urls = append(st.urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		m := cdrw.NewServeMetrics()
		reg := cdrw.NewGraphRegistry(0, m)
		handler := cdrw.NewServeHandler(reg, m)
		if shards > 1 {
			node, err := cdrw.NewClusterNode(reg, cdrw.ClusterConfig{
				Size:          shards,
				Advertise:     st.urls[i],
				Join:          st.urls,
				PlacementSeed: 1,
			})
			if err != nil {
				for _, l := range lns[i:] {
					l.Close()
				}
				st.close()
				return nil, fmt.Errorf("cluster node %d: %w", i, err)
			}
			node.Start()
			st.nodes = append(st.nodes, node)
			handler = cdrw.NewClusterServeHandler(reg, m, node)
		}
		srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
		st.regs = append(st.regs, reg)
		st.mets = append(st.mets, m)
		st.srvs = append(st.srvs, srv)
		st.served.Add(1)
		go func() {
			defer st.served.Done()
			_ = srv.Serve(ln) // returns http.ErrServerClosed on close
		}()
	}
	return st, nil
}

// close stops every server and cluster node and waits for the serving
// goroutines to return.
func (st *stack) close() {
	for _, srv := range st.srvs {
		_ = srv.Close()
	}
	st.served.Wait()
	for _, n := range st.nodes {
		n.Stop()
	}
}

// waitReady polls every shard's /readyz until it reports ready.
func (st *stack) waitReady(c *http.Client) error {
	deadline := time.Now().Add(20 * time.Second)
	for _, u := range st.urls {
		for {
			status, _, err := get(c, u+"/readyz")
			if err == nil && status == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s never became ready (status %d, %v)", u, status, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// clusterCounters is the sum of every shard's wire counters.
type clusterCounters struct {
	words, bytes, rounds int64
}

func (st *stack) clusterCounters() clusterCounters {
	var c clusterCounters
	for _, n := range st.nodes {
		m := n.Metrics()
		c.words += m.TotalLinkWords()
		c.bytes += m.TotalLinkBytes()
		c.rounds += m.Rounds()
	}
	return c
}

func (c clusterCounters) sub(o clusterCounters) clusterCounters {
	return clusterCounters{words: c.words - o.words, bytes: c.bytes - o.bytes, rounds: c.rounds - o.rounds}
}

// newClient returns the HTTP client of one benchmark process: keep-alive
// connections, enough idle ones per shard for every client.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// send issues one request and reads the whole answer into buf, returning
// the status and the client-side latency (request written to last body
// byte read). id, when set, is sent as X-Request-Id.
func send(c *http.Client, method, url string, body []byte, id string, buf *bytes.Buffer) (int, time.Duration, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	buf.Reset()
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, time.Since(start), err
	}
	_, err = buf.ReadFrom(resp.Body)
	d := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, d, err
}

// get fetches url and returns its status and body.
func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
