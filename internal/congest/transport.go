package congest

import (
	"context"
	"fmt"

	"cdrw/internal/rw"
)

// FloodFrame is one walk's view of a flood round handed to a FloodTransport:
// P is the current distribution (read-only for the transport) and Next is
// where the transport must write the evolved distribution — for every vertex,
// next(u) = Σ_{w ∈ N(u)} p(w)/d(w), with isolated vertices keeping their
// mass. A batched round passes one frame per live walk, in lane order.
type FloodFrame struct {
	P    rw.Dist
	Next rw.Dist
}

// FloodTransport executes the numeric part of a flood round outside the
// in-memory kernels — over real machine links, in a cluster. It is the
// pluggable round transport behind the network: the simulator keeps ALL of
// its own accounting (rounds, per-lane messages, observer link loads — the
// Conversion-Theorem "predicted" side) regardless of the transport, and
// delegates only the distribution evolution. A transport must therefore be
// numerically exact: the contract is the bit-identical evolution the
// in-memory kernels compute — shares frozen as p(w)·(1/d(w)) at each
// holder, accumulated per receiver in CSR neighbour order — so detection on
// a transport-backed network returns the same communities, stats and
// simulated metrics as the in-memory run (the conformance suites enforce
// this end to end).
//
// ctx is the run context of the enclosing detection; a transport should
// honour it for its own I/O. Returning an error poisons the network run
// (see Network.SetFloodTransport): the detection unwinds with the error
// within one ladder poll, never with wrong numbers.
type FloodTransport interface {
	Flood(ctx context.Context, frames []FloodFrame) error
}

// SetFloodTransport installs (or, with nil, removes) the network's flood
// transport and clears any sticky transport error. While a transport is
// installed, batchFlood accounts its rounds and messages exactly as before
// — simulated cost is a pure function of the execution, not of where the
// floats move — but hands the numeric evolution to the transport instead of
// running the in-memory gather.
//
// A transport error is sticky for the remainder of the run: interrupted()
// reports it like a context error, so the detection loops (ladder sweeps,
// round scheduler, pool loop) unwind within O(1) rounds. The next
// context-aware entry point (or SetFloodTransport call) clears it.
func (nw *Network) SetFloodTransport(t FloodTransport) {
	nw.transport = t
	nw.transportErr = nil
}

// FloodTransport returns the installed transport (nil if none).
func (nw *Network) FloodTransport() FloodTransport { return nw.transport }

// floodRemote runs one flood round's frames through the installed transport,
// making any failure sticky. After a failure it is a no-op: the frames' Next
// contents are garbage either way, and the caller's next interrupted() poll
// surfaces the first error rather than a cascade.
func (nw *Network) floodRemote(frames []FloodFrame) {
	if nw.transportErr != nil || len(frames) == 0 {
		return
	}
	ctx := nw.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := nw.transport.Flood(ctx, frames); err != nil {
		nw.transportErr = fmt.Errorf("congest: flood transport: %w", err)
	}
}
