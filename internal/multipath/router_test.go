package multipath

import (
	"reflect"
	"testing"

	"dsnet/internal/netsim"
	"dsnet/internal/traffic"
)

// quickCfg is a short simulation schedule for unit tests.
func quickCfg(seed uint64) netsim.Config {
	cfg := netsim.Default()
	cfg.Seed = seed
	cfg.WarmupCycles = 2000
	cfg.MeasureCycles = 4000
	cfg.DrainCycles = 6000
	return cfg
}

func newRouter(t *testing.T, sel Selector) *Router {
	t.Helper()
	r, err := New(torus8x8(t), Config{K: 4, VCs: 4, Selector: sel, Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

// freshState is a packet at its source before path selection.
func freshState(src, dst, pktID int) netsim.PacketState {
	return netsim.PacketState{SrcSw: int32(src), DstSw: int32(dst), PktID: int64(pktID)}
}

func TestRouterSelectionAtSource(t *testing.T) {
	const src, dst = 0, 27
	for _, sel := range []Selector{SelectorStatic, SelectorRR} {
		r := newRouter(t, sel)
		nPaths := len(r.Table().Set(src, dst).Paths)
		if nPaths < 2 {
			t.Fatalf("want >= 2 paths for the test pair, got %d", nPaths)
		}
		cands := r.Candidates(freshState(src, dst, 5), src, nil)
		// One path offered on VCs 1..3, plus the escape.
		if len(cands) != 4 {
			t.Fatalf("%v: %d candidates, want 4", sel, len(cands))
		}
		if !cands[len(cands)-1].Escape || cands[len(cands)-1].VC != 0 {
			t.Fatalf("%v: last candidate is not the VC-0 escape: %+v", sel, cands[len(cands)-1])
		}
		for _, c := range cands[:len(cands)-1] {
			if c.VC == 0 || c.Escape {
				t.Fatalf("%v: path candidate on escape VC: %+v", sel, c)
			}
			if pathIndex(c.NewState) < 0 {
				t.Fatalf("%v: path candidate carries no path index", sel)
			}
		}
		// Same packet asks again (blocked): identical decision.
		again := r.Candidates(freshState(src, dst, 5), src, nil)
		if !reflect.DeepEqual(cands, again) {
			t.Fatalf("%v: selection not stable across calls", sel)
		}
	}

	// RR walks the path set as PktID advances; static does not.
	rr := newRouter(t, SelectorRR)
	seenRR := map[int]bool{}
	st := newRouter(t, SelectorStatic)
	seenStatic := map[int]bool{}
	for pkt := 0; pkt < 8; pkt++ {
		c := rr.Candidates(freshState(src, dst, pkt), src, nil)
		seenRR[pathIndex(c[0].NewState)] = true
		c = st.Candidates(freshState(src, dst, pkt), src, nil)
		seenStatic[pathIndex(c[0].NewState)] = true
	}
	if len(seenRR) != len(rr.Table().Set(src, dst).Paths) {
		t.Fatalf("rr visited %d paths, want all %d", len(seenRR), len(rr.Table().Set(src, dst).Paths))
	}
	if len(seenStatic) != 1 {
		t.Fatalf("static visited %d paths for one flow, want 1", len(seenStatic))
	}

	// Adaptive offers every live path.
	ad := newRouter(t, SelectorAdaptive)
	cands := ad.Candidates(freshState(src, dst, 0), src, nil)
	nPaths := len(ad.Table().Set(src, dst).Paths)
	if want := nPaths*3 + 1; len(cands) != want {
		t.Fatalf("adaptive: %d candidates, want %d", len(cands), want)
	}
}

func TestRouterFollowsSelectedPath(t *testing.T) {
	r := newRouter(t, SelectorStatic)
	const src, dst = 3, 60
	st := freshState(src, dst, 1)
	cands := r.Candidates(st, src, nil)
	st.RtState = cands[0].NewState
	idx := pathIndex(st.RtState)
	p := r.Table().Set(src, dst).Paths[idx]
	for step := 1; step < len(p)-1; step++ {
		st.Step = int32(step)
		cands := r.Candidates(st, int(p[step]), nil)
		if len(cands) == 0 {
			t.Fatalf("no candidates at step %d", step)
		}
		for _, c := range cands[:len(cands)-1] {
			if c.Next != p[step+1] {
				t.Fatalf("step %d offers hop to %d, path says %d", step, c.Next, p[step+1])
			}
		}
		st.RtState = cands[0].NewState
	}
	// At the destination: nothing.
	st.Step = int32(len(p) - 1)
	if cands := r.Candidates(st, dst, nil); len(cands) != 0 {
		t.Fatalf("candidates at destination: %+v", cands)
	}
}

func TestRouterDivertLatch(t *testing.T) {
	r := newRouter(t, SelectorAdaptive)
	const src, dst = 0, 27
	st := freshState(src, dst, 0)
	cands := r.Candidates(st, src, nil)
	esc := cands[len(cands)-1]
	if esc.NewState&mpDiverted == 0 {
		t.Fatal("escape grant does not latch the divert bit")
	}
	// A diverted packet gets escape-only candidates from then on.
	st.RtState = esc.NewState
	st.Step = 1
	cands = r.Candidates(st, int(esc.Next), nil)
	if len(cands) != 1 || !cands[0].Escape {
		t.Fatalf("diverted packet offered %+v, want single escape", cands)
	}
}

func TestRouterFaultReselectsAmongSurvivors(t *testing.T) {
	g := torus8x8(t)
	r, err := New(g, Config{K: 4, VCs: 4, Selector: SelectorRR, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const src, dst = 0, 27
	ps := r.Table().Set(src, dst)
	// Kill the first hop of path 0.
	edgeDead := make([]bool, g.M())
	swDead := make([]bool, g.N())
	for _, h := range g.Neighbors(int(ps.Paths[0][0])) {
		if h.To == ps.Paths[0][1] {
			edgeDead[h.Edge] = true
		}
	}
	r.UpdateFaults(edgeDead, swDead)
	live := r.liveMask[src*g.N()+dst]
	if live&1 != 0 {
		t.Fatal("path 0 still marked live after its first hop died")
	}
	if popcount16(live) == 0 {
		t.Fatal("all paths died from one link fault on a torus")
	}
	// Fresh packets select only among survivors.
	for pkt := 0; pkt < 8; pkt++ {
		cands := r.Candidates(freshState(src, dst, pkt), src, nil)
		for _, c := range cands[:len(cands)-1] {
			if pathIndex(c.NewState) == 0 {
				t.Fatalf("packet %d sprayed onto the dead path", pkt)
			}
		}
	}
	// A packet already on the dead path diverts with Detour set.
	onDead := netsim.PacketState{SrcSw: src, DstSw: dst, Step: 0, RtState: pathBits(0)}
	cands := r.Candidates(onDead, src, nil)
	if len(cands) != 1 || !cands[0].Escape || !cands[0].Detour {
		t.Fatalf("packet on dead path offered %+v, want single escape detour", cands)
	}
	// Full repair restores the pristine table.
	r.UpdateFaults(make([]bool, g.M()), swDead)
	if r.liveMask[src*g.N()+dst] != r.fullMask[src*g.N()+dst] {
		t.Fatal("repair did not restore the live mask")
	}
}

// transposeFor builds the fixed-permutation pattern the flow-level
// assertions need: each host sends to exactly one destination, so flows
// persist long enough for PathSpread/OutOfOrder to mean something
// (uniform random traffic averages ~1 packet per flow on short runs).
func transposeFor(t *testing.T, hosts int) traffic.Pattern {
	t.Helper()
	p, err := traffic.NewTranspose(hosts)
	if err != nil {
		t.Fatalf("transpose: %v", err)
	}
	return p
}

// runVCT runs one short VCT simulation with the given router config.
func runVCT(t *testing.T, sel Selector, pat traffic.Pattern, rate float64, plan *netsim.FaultPlan, seed uint64) netsim.Result {
	t.Helper()
	g := torus8x8(t)
	cfg := quickCfg(seed)
	r, err := New(g, Config{K: 4, VCs: cfg.VCs, Selector: sel, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if pat == nil {
		pat = traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
	}
	sim, err := netsim.New(netsim.Spec{Config: cfg, Graph: g, Router: r, Pattern: pat, Rate: rate, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestMultipathSimDelivers(t *testing.T) {
	for _, sel := range []Selector{SelectorStatic, SelectorRR, SelectorAdaptive} {
		res := runVCT(t, sel, nil, 0.06, nil, 11)
		if res.DeliveredMeasured == 0 {
			t.Fatalf("%v: nothing delivered", sel)
		}
		if res.Saturated {
			t.Fatalf("%v: saturated at 6%% load", sel)
		}
	}
}

func TestMultipathSpreadAndReorder(t *testing.T) {
	// Under a fixed permutation each flow carries many packets, so the
	// flow books become meaningful: packet-level round-robin spreads each
	// flow over its disjoint paths (and reorders), static spraying pins
	// each flow to one path.
	rr := runVCT(t, SelectorRR, transposeFor(t, 256), 0.06, nil, 11)
	if rr.PathSpread < 2 {
		t.Fatalf("rr PathSpread = %v, want >= 2", rr.PathSpread)
	}
	if rr.OutOfOrder == 0 {
		t.Fatal("rr spraying over unequal-length paths produced no reordering")
	}
	st := runVCT(t, SelectorStatic, transposeFor(t, 256), 0.06, nil, 11)
	if st.PathSpread > 1.2 {
		t.Fatalf("static PathSpread = %v, want ~1 (one path per flow)", st.PathSpread)
	}
	if st.PathSpread < 0.5 {
		t.Fatalf("static PathSpread = %v, want ~1", st.PathSpread)
	}
}

func TestMultipathZeroFaultBitIdentity(t *testing.T) {
	// Identical configs give identical Results; and an armed-but-empty
	// fault plan must not perturb anything.
	a := runVCT(t, SelectorAdaptive, nil, 0.06, nil, 23)
	b := runVCT(t, SelectorAdaptive, nil, 0.06, nil, 23)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical multipath runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	c := runVCT(t, SelectorAdaptive, nil, 0.06, netsim.NewFaultPlan(), 23)
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("empty fault plan perturbed a multipath run:\n%+v\nvs\n%+v", a, c)
	}
}

func TestMultipathDeadLinkResprays(t *testing.T) {
	// Kill a handful of links mid-warmup: sprayed packets must re-spray
	// onto survivors and the run must stay live and mostly delivered.
	g := torus8x8(t)
	plan, err := netsim.RandomLinkFaults(g, 0.05, 1000, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	res := runVCT(t, SelectorRR, nil, 0.06, plan, 9)
	if res.DeliveredTotal == 0 {
		t.Fatal("nothing delivered under faults")
	}
	delivered := float64(res.DeliveredTotal) / float64(res.GeneratedTotal)
	if delivered < 0.9 {
		t.Fatalf("delivered fraction %.3f under 5%% link faults, want >= 0.9", delivered)
	}
	if res.Lost > res.GeneratedTotal/100 {
		t.Fatalf("lost %d of %d packets", res.Lost, res.GeneratedTotal)
	}
	if res.Rerouted == 0 && res.Retried == 0 {
		t.Fatal("faults on a sprayed fabric produced no reroutes or retries")
	}
}

func TestMultipathWormholeDelivers(t *testing.T) {
	g := torus8x8(t)
	cfg := quickCfg(5)
	cfg.BufFlitsPerVC = 8 // wormhole: buffers smaller than a packet
	r, err := New(g, Config{K: 4, VCs: cfg.VCs, Selector: SelectorRR, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.NewWormSim(cfg, g, r, transposeFor(t, g.N()*cfg.HostsPerSwitch), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("wormhole run: %v", err)
	}
	if res.DeliveredMeasured == 0 {
		t.Fatal("wormhole multipath delivered nothing")
	}
	if res.PathSpread < 2 {
		t.Fatalf("wormhole rr PathSpread = %v, want >= 2", res.PathSpread)
	}
}

func TestRouterRejectsBadConfig(t *testing.T) {
	g := ring(8)
	if _, err := New(g, Config{K: 4, VCs: 1}); err == nil {
		t.Fatal("1 VC accepted (no escape channel)")
	}
	if _, err := New(g, Config{K: 0, VCs: 4}); err == nil {
		t.Fatal("k=0 accepted")
	}
	tab, _ := BuildTable(g, 2)
	if _, err := NewWithTable(ring(6), tab, Config{K: 2, VCs: 4}); err == nil {
		t.Fatal("mis-sized table accepted")
	}
}
