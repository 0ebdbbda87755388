package netsim_test

import (
	"bytes"
	"math"
	"testing"

	"dsnet/internal/netsim"
	"dsnet/internal/traffic"
)

// countingRouter counts Candidates calls and the distinct heads that
// made them. A head is one packet at one switch after a given number of
// hops; a fault-free run has a single routing epoch.
type countingRouter struct {
	netsim.Router
	calls int
	heads map[[3]int64]bool
}

func (r *countingRouter) Candidates(st netsim.PacketState, sw int, buf []netsim.Candidate) []netsim.Candidate {
	r.calls++
	r.heads[[3]int64{st.PktID, int64(st.Step), int64(sw)}] = true
	return r.Router.Candidates(st, sw, buf)
}

// grantCounter counts the GRANT and EJECT lines of a packet trace.
type grantCounter struct{ grants int }

func (w *grantCounter) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte(" GRANT ")) || bytes.Contains(b, []byte(" EJECT ")) {
		w.grants++
	}
	return len(b), nil
}

// TestBlockedHeadsRouteOnce guards the event-driven allocator: past
// saturation most heads fail their grant for many cycles in a row, and
// each must query the router once per routing epoch, not once per
// cycle. A change that brings back per-cycle re-routing multiplies the
// call count.
func TestBlockedHeadsRouteOnce(t *testing.T) {
	g := goldenDSN(t, 16).Graph()
	cfg := goldenCfg(1, 1000, 2000, 1000)
	grants := &grantCounter{}
	cfg.Trace, cfg.TracePackets = grants, math.MaxInt64
	rt := &countingRouter{Router: duato(t, g), heads: map[[3]int64]bool{}}
	s, err := netsim.NewSim(cfg, g, rt, traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatalf("run is not saturated, so heads rarely block: %v", res)
	}
	bound := grants.grants + len(rt.heads)
	t.Logf("Candidates calls %d, grants %d, distinct heads %d", rt.calls, grants.grants, len(rt.heads))
	if rt.calls > bound {
		t.Fatalf("%d Candidates calls exceed grants + distinct heads = %d: blocked heads re-route every cycle",
			rt.calls, bound)
	}
}
