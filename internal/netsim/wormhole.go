package netsim

import (
	"fmt"
	"math/rand/v2"

	"dsnet/internal/graph"
	"dsnet/internal/recovery"
	"dsnet/internal/traffic"
)

// WormSim is the wormhole-switching counterpart of Sim: virtual-channel
// flow control with flit-granular credits and buffers that may be smaller
// than a packet, so a blocked packet stalls in place as a "worm"
// stretched across several switches, each holding one VC exclusively
// until the tail passes. Section V.A of the paper discusses deadlock
// avoidance for exactly this regime ("wormhole or cut-through routing
// modes").
//
// The router pipeline model matches Sim: the header is routable
// PipelineCycles after arriving, every flit takes 1 cycle on a link plus
// LinkDelayCycles of wire time, and each input/output port moves at most
// one flit per cycle.
type WormSim struct {
	cfg     Config
	g       *graph.Graph
	rt      Router
	pattern traffic.Pattern
	rate    float64
	rng     *rand.Rand

	nSw   int
	hosts int
	nChan int

	chanDst   []int32
	inChans   [][]int32 // through channels first, injection channels last
	thruCount []int

	// Per (channel, VC) slot state.
	slotPkt    []*wpacket
	buffered   []int32
	readyAt    []int64 // header arrival + pipeline; MaxInt64 until header
	routed     []bool
	isEject    []bool
	outSlot    []int32 // allocated downstream slot (when routed, !isEject)
	outChan    []int32
	forwarded  []int32
	credits    []int32 // buffer space at the slot, as seen by its sender
	slotOfChan func(c int32, vc int8) int32

	// Per-cycle usage stamps.
	inUsed  []int64 // per channel
	outUsed []int64 // per channel
	ejUsed  []int64 // per host

	// Host injection state.
	hostQ        [][]*wpacket
	hostCur      []*wpacket
	hostSlot     []int32 // allocated injection slot
	hostInjected []int32

	rrIn     []int
	orderBuf []int32
	// swSlots counts the occupied VC slots of each switch's inputs, so
	// route and forward skip idle switches.
	swSlots []int32

	wheel     *timingWheel[wwheelEv]
	linkDelay []int64 // per-channel wire delay in cycles

	// Fault state (SetFaultPlan); see that method for the wormhole
	// engine's masking-only semantics.
	plan         *FaultPlan
	planIdx      int
	edgeDead     []bool
	swDead       []bool
	chanDead     []bool
	faultActive  bool
	reroutedPkts int64

	// rep holds the closed-loop replay state (SetReplay); nil in open-loop
	// runs, whose behavior is untouched.
	rep *replayState

	// flows holds per-flow reorder/path-spread accounting, non-nil only
	// when the router implements PathIndexer (multipath source routing).
	flows *flowAcct

	// rec holds the armed deadlock-recovery machinery (SetRecovery); nil
	// means disarmed. inNetwork counts worms between host-NIC claim and
	// delivery/abort (the drain-emptiness condition); lostTotal counts
	// worms dropped past the abort budget; flitsInjected/flitsEjected are
	// the flit-conservation books; chainMark/chainBuf are teardown
	// scratch.
	rec           *recState
	inNetwork     int64
	lostTotal     int64
	flitsInjected int64
	flitsEjected  int64
	chainMark     []bool
	chainBuf      []int32

	// mon holds the armed runtime invariant monitors (SetMonitors);
	// violation records the first trip. maxHOLWait tracks the largest
	// routing wait of a headered worm (Result.MaxHOLWaitCycles).
	mon        Monitors
	violation  *MonitorViolation
	maxHOLWait int64

	now          int64
	nextID       int64
	inFlight     int64
	lastProgress int64

	genMeasured    int64
	delMeasured    int64
	latencySum     int64
	hopsSum        int64
	latencies      []int64
	flitsInWindow  int64
	deliveredTotal int64
	generatedTotal int64
	chanFlits      []int64

	scratch []Candidate
}

type wpacket struct {
	id       int64
	dstHost  int32
	st       PacketState
	genCycle int64
	measured bool
	// escLocked implements the conservative Duato rule for wormhole: once
	// a worm enters the escape network it stays there until delivery.
	// (VCT can safely bounce back to adaptive channels because whole
	// packets are buffered; a worm stretched across switches cannot.)
	escLocked bool
	// blockSince drives the escape-patience policy (see Config).
	blockSince int64
	// rerouted marks worms that took at least one fault-detour grant.
	rerouted bool
	// msg is the index of the Replay message this worm carries a part of;
	// meaningful only in closed-loop replay mode (see replay.go).
	msg int32
	// srcHost is where the worm injects from; recovery re-sources an
	// aborted worm here.
	srcHost int32
	// Deadlock-recovery state (SetRecovery; see recovery.go). injected
	// counts flits the host has streamed so far (the teardown quantum);
	// lastAdvance is the last cycle any flit of the worm moved or a route
	// was claimed (the stall clock); suspectAt/deadlocked/recovering/
	// aborts mirror the VCT packet fields; scan dedupes the multi-slot
	// chain during the per-cycle detection sweep.
	injected    int32
	lastAdvance int64
	suspectAt   int64
	scan        int64
	aborts      int32
	deadlocked  bool
	recovering  bool
}

// wwheelEv is the wormhole engine's timing-wheel event; amt doubles as
// the head-flit marker for arrivals.
type wwheelEv struct {
	kind  uint8
	vcIdx int32
	amt   int32
	pkt   *wpacket
}

const neverReady = int64(1) << 62

// NewWormSim builds a wormhole simulation. Unlike NewSim, buffers smaller
// than a packet are permitted (and are the point).
func NewWormSim(cfg Config, g *graph.Graph, rt Router, p traffic.Pattern, rate float64) (*WormSim, error) {
	if err := cfg.ValidateWormhole(); err != nil {
		return nil, err
	}
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("netsim: offered load %g flits/cycle/host outside [0,1]", rate)
	}
	nSw := g.N()
	hosts := nSw * cfg.HostsPerSwitch
	nChan := 2*g.M() + hosts
	vcs := cfg.VCs
	s := &WormSim{
		cfg: cfg, g: g, rt: rt, pattern: p, rate: rate,
		rng:   rand.New(rand.NewPCG(cfg.Seed, 0x7ea11e77)),
		nSw:   nSw,
		hosts: hosts,
		nChan: nChan,
		flows: newFlowAcct(rt),
	}
	s.chanDst = make([]int32, nChan)
	s.inChans = make([][]int32, nSw)
	for i, e := range g.Edges() {
		s.chanDst[2*i] = e.V
		s.chanDst[2*i+1] = e.U
		s.inChans[e.V] = append(s.inChans[e.V], int32(2*i))
		s.inChans[e.U] = append(s.inChans[e.U], int32(2*i+1))
	}
	s.thruCount = make([]int, nSw)
	for sw := range s.inChans {
		s.thruCount[sw] = len(s.inChans[sw])
	}
	for h := 0; h < hosts; h++ {
		c := 2*g.M() + h
		sw := h / cfg.HostsPerSwitch
		s.chanDst[c] = int32(sw)
		s.inChans[sw] = append(s.inChans[sw], int32(c))
	}
	slots := nChan * vcs
	s.slotPkt = make([]*wpacket, slots)
	s.buffered = make([]int32, slots)
	s.readyAt = make([]int64, slots)
	for i := range s.readyAt {
		s.readyAt[i] = neverReady
	}
	s.routed = make([]bool, slots)
	s.isEject = make([]bool, slots)
	s.outSlot = make([]int32, slots)
	s.outChan = make([]int32, slots)
	s.forwarded = make([]int32, slots)
	s.credits = make([]int32, slots)
	for i := range s.credits {
		s.credits[i] = int32(cfg.BufFlitsPerVC)
	}
	s.slotOfChan = func(c int32, vc int8) int32 { return c*int32(vcs) + int32(vc) }
	s.inUsed = make([]int64, nChan)
	s.outUsed = make([]int64, nChan)
	s.ejUsed = make([]int64, hosts)
	for i := range s.inUsed {
		s.inUsed[i] = -1
		s.outUsed[i] = -1
	}
	for i := range s.ejUsed {
		s.ejUsed[i] = -1
	}
	s.hostQ = make([][]*wpacket, hosts)
	s.hostCur = make([]*wpacket, hosts)
	s.hostSlot = make([]int32, hosts)
	s.hostInjected = make([]int32, hosts)
	s.rrIn = make([]int, nSw)
	s.swSlots = make([]int32, nSw)
	s.chanFlits = make([]int64, nChan)
	s.linkDelay = make([]int64, nChan)
	for i := range s.linkDelay {
		s.linkDelay[i] = cfg.LinkDelayCycles
	}
	s.wheel = newTimingWheel[wwheelEv](cfg.LinkDelayCycles + int64(cfg.PipelineCycles) + 4)
	return s, nil
}

func (s *WormSim) inWindow(t int64) bool {
	return t >= s.cfg.WarmupCycles && t < s.cfg.WarmupCycles+s.cfg.MeasureCycles
}

// SetFaultPlan attaches a fault schedule. Must be called before Run.
//
// Unlike the VCT engine, the wormhole engine supports faults at packet
// granularity only (fail-stop admission): once a component dies, new
// headers are never routed onto its channels, hosts on dead switches
// stop generating, nobody addresses a dead switch, and FaultAware
// routers are notified — but a worm already stretched across a dying
// link keeps draining over it rather than being truncated mid-flight
// (tearing down a partial worm would corrupt every slot in its chain).
// There is no timeout/retry transport either, so a fault set that
// disconnects live traffic from its destination freezes those worms in
// place; they are reported in InFlightAtEnd, and only a full-network
// stall trips the run watchdog. Use the VCT engine for drop/retry
// degradation experiments.
func (s *WormSim) SetFaultPlan(p *FaultPlan) error {
	if s.now != 0 || s.nextID != 0 {
		return fmt.Errorf("netsim: SetFaultPlan must be called before Run")
	}
	if p == nil {
		return fmt.Errorf("netsim: nil fault plan")
	}
	if err := p.Validate(s.g); err != nil {
		return err
	}
	s.plan = p
	s.planIdx = 0
	s.edgeDead = make([]bool, s.g.M())
	s.swDead = make([]bool, s.nSw)
	s.chanDead = make([]bool, s.nChan)
	return nil
}

// SetMonitors arms the runtime invariant monitors for this run. Must be
// called before Run. Monitors are passive: a run that trips none is
// bit-identical to an unmonitored one.
func (s *WormSim) SetMonitors(m Monitors) error {
	if s.now != 0 || s.nextID != 0 {
		return fmt.Errorf("netsim: SetMonitors after Run started")
	}
	if err := m.validate(); err != nil {
		return err
	}
	s.mon = m
	return nil
}

// SetRecovery arms runtime deadlock detection and progressive recovery
// for this run (see package recovery and DESIGN.md). Must be called
// before Run. Detection is passive — stall clocks and the confirmation
// sweep draw no randomness and touch no flow control — so a run that
// never confirms a deadlock stays bit-identical to an unarmed one.
func (s *WormSim) SetRecovery(c recovery.Config) error {
	if s.now != 0 || s.nextID != 0 {
		return fmt.Errorf("netsim: SetRecovery after Run started")
	}
	c = c.Normalize()
	if err := c.Validate(); err != nil {
		return err
	}
	esc, err := recovery.NewEscape(s.g, s.cfg.VCs)
	if err != nil {
		return err
	}
	s.rec = newRecState(c, esc)
	s.chainMark = make([]bool, len(s.slotPkt))
	return nil
}

// violate records the first monitor violation; later ones are dropped.
func (s *WormSim) violate(monitor string, pkt int64, format string, args ...any) {
	if s.violation != nil {
		return
	}
	s.violation = &MonitorViolation{
		Monitor: monitor,
		Cycle:   s.now,
		Packet:  pkt,
		Detail:  fmt.Sprintf(format, args...),
	}
}

// checkConservation verifies the wormhole identity generated ==
// delivered + in-flight + lost. Without recovery this engine never
// drops or loses packets (fail-stop admission keeps doomed packets out
// instead) and lost stays 0; with recovery armed, worms aborted past
// the budget become accounted losses.
func (s *WormSim) checkConservation() {
	if !s.mon.Conservation {
		return
	}
	if s.generatedTotal != s.deliveredTotal+s.inFlight+s.lostTotal {
		s.violate(MonitorConservation, -1, "generated %d != delivered %d + in-flight %d + lost %d",
			s.generatedTotal, s.deliveredTotal, s.inFlight, s.lostTotal)
	}
	s.auditFlits()
}

// auditFlits structurally verifies flit conservation through
// abort-and-reinject: every flit a host ever injected is by now either
// ejected at a destination, torn down by an abort, buffered in some VC
// slot, or in flight on a wire. Runs at every fault epoch and at run
// end when recovery and the conservation monitor are both armed.
func (s *WormSim) auditFlits() {
	if s.rec == nil {
		return
	}
	var resident int64
	for _, b := range s.buffered {
		resident += int64(b)
	}
	for _, wslot := range s.wheel.slots {
		for _, ev := range wslot {
			if ev.kind == evArrive {
				resident++
			}
		}
	}
	if s.flitsInjected != s.flitsEjected+s.rec.tr.AbortedFlits+resident {
		s.violate(MonitorConservation, -1,
			"flit books broken: injected %d != ejected %d + aborted %d + resident %d",
			s.flitsInjected, s.flitsEjected, s.rec.tr.AbortedFlits, resident)
	}
}

// applyFaults fires due fault events and refreshes the channel death
// mask and the router's view.
func (s *WormSim) applyFaults() {
	if s.plan == nil || s.planIdx >= len(s.plan.Events) {
		return
	}
	changed := false
	for s.planIdx < len(s.plan.Events) && s.plan.Events[s.planIdx].Cycle <= s.now {
		ev := s.plan.Events[s.planIdx]
		s.planIdx++
		if ev.Edge >= 0 {
			s.edgeDead[ev.Edge] = !ev.Repair
		} else {
			s.swDead[ev.Switch] = !ev.Repair
		}
		if !ev.Repair {
			s.faultActive = true
		}
		changed = true
	}
	if !changed {
		return
	}
	for i := 0; i < s.g.M(); i++ {
		e := s.g.Edge(i)
		dead := s.edgeDead[i] || s.swDead[e.U] || s.swDead[e.V]
		s.chanDead[2*i] = dead
		s.chanDead[2*i+1] = dead
	}
	for h := 0; h < s.hosts; h++ {
		s.chanDead[2*s.g.M()+h] = s.swDead[h/s.cfg.HostsPerSwitch]
	}
	if fa, ok := s.rt.(FaultAware); ok {
		if s.rec != nil && s.rec.cfg.DrainOnFault {
			// Drain-before-reconfigure: masks take effect immediately, the
			// routing tables swap once the network quiesces (recoverStep).
			s.rec.beginDrain(s.now)
		} else {
			fa.UpdateFaults(s.edgeDead, s.swDead)
		}
	}
	if s.rec != nil {
		// The escape network re-derives on every epoch so recovery
		// reinjections never ride dead links.
		s.rec.rebuild(s.g, s.edgeDead, s.swDead)
	}
	// Fault epoch boundary: audit the books after the masks changed.
	s.checkConservation()
}

// Run executes the schedule and returns the aggregated result. In
// closed-loop replay mode the schedule is ignored: the run ends when the
// workload completes (or can no longer make progress).
func (s *WormSim) Run() (Result, error) {
	end := s.cfg.WarmupCycles + s.cfg.MeasureCycles + s.cfg.DrainCycles
	if s.rep != nil {
		end = s.rep.endCycle()
	}
	watchdog := s.cfg.WatchdogCycles
	if watchdog <= 0 {
		watchdog = Default().WatchdogCycles
	}
	for s.now = 0; s.now < end; s.now++ {
		s.applyFaults()
		s.processEvents()
		s.inject()
		s.route()
		s.forward()
		s.recoverStep()
		if s.violation != nil {
			return s.result(), s.violation
		}
		if s.rep != nil && s.inFlight == 0 {
			break
		}
		if s.inFlight > 0 && s.now-s.lastProgress > watchdog {
			return s.result(), &NoProgressError{Cycle: s.now, InFlight: s.inFlight, WatchdogCycles: watchdog}
		}
	}
	s.finalRecovery()
	s.checkConservation()
	if s.violation != nil {
		return s.result(), s.violation
	}
	return s.result(), nil
}

func (s *WormSim) processEvents() {
	for _, ev := range s.wheel.drain(s.now) {
		switch ev.kind {
		case evArrive:
			s.buffered[ev.vcIdx]++
			if ev.amt == 1 { // head flit
				s.readyAt[ev.vcIdx] = s.now + s.cfg.PipelineCycles
			}
		case evCredit:
			s.credits[ev.vcIdx]++
		case evDeliver:
			s.deliver(ev.pkt, s.now)
		}
	}
}

func (s *WormSim) deliver(p *wpacket, at int64) {
	s.inNetwork--
	s.inFlight--
	s.deliveredTotal++
	s.lastProgress = s.now
	if s.inWindow(at) {
		s.flitsInWindow += int64(s.cfg.PacketFlits)
	}
	if p.measured {
		s.delMeasured++
		lat := at - p.genCycle
		s.latencySum += lat
		s.latencies = append(s.latencies, lat)
		s.hopsSum += int64(p.st.Step)
	}
	if s.rep != nil {
		s.rep.onDeliver(p.msg, at)
	}
	s.flows.onDeliver(p.srcHost, p.dstHost, p.st)
}

// inject is one cycle of host-side work: sourcing new packets (open-loop
// Bernoulli generation, or dependency-gated release in replay mode) and
// streaming queued flits into the switches. Generation for one host
// cannot affect streaming for another within a cycle, so performing all
// generation first is behavior-identical to the historical interleaved
// loop — the RNG draw order is unchanged.
func (s *WormSim) inject() {
	if s.rep != nil {
		s.releaseReady()
	} else {
		s.genTraffic()
	}
	s.driveHosts()
}

// genTraffic runs the open-loop Bernoulli injection process. All RNG
// consumption of the injection path lives here.
func (s *WormSim) genTraffic() {
	pktProb := s.rate / float64(s.cfg.PacketFlits)
	for h := 0; h < s.hosts; h++ {
		if s.rng.Float64() < pktProb {
			p := &wpacket{
				id:         s.nextID,
				srcHost:    int32(h),
				genCycle:   s.now,
				measured:   s.inWindow(s.now),
				blockSince: -1,
				msg:        -1,
			}
			s.nextID++
			p.st.PktID = p.id
			p.dstHost = int32(s.pattern.Dest(h, s.rng))
			p.st.SrcSw = int32(h / s.cfg.HostsPerSwitch)
			p.st.DstSw = p.dstHost / int32(s.cfg.HostsPerSwitch)
			// Fail-stop admission: hosts on dead switches generate
			// nothing and nobody addresses a dead switch (the RNG draws
			// above keep the injection process aligned across fault sets).
			if s.faultActive && (s.swDead[p.st.SrcSw] || s.swDead[p.st.DstSw]) {
				p = nil
			}
			if p != nil {
				s.hostQ[h] = append(s.hostQ[h], p)
				s.generatedTotal++
				if p.measured {
					s.genMeasured++
				}
				s.inFlight++
			}
		}
	}
}

// driveHosts claims injection VCs and streams queued flits, one per host
// per cycle.
func (s *WormSim) driveHosts() {
	vcs := s.cfg.VCs
	for h := 0; h < s.hosts; h++ {
		// Claim an injection VC for the next packet (paused while a drain
		// epoch quiesces the network; worms mid-injection keep streaming).
		if s.hostCur[h] == nil && len(s.hostQ[h]) > 0 && (s.rec == nil || !s.rec.draining) {
			c := int32(2*s.g.M() + h)
			for vc := 0; vc < vcs; vc++ {
				slot := s.slotOfChan(c, int8(vc))
				if s.slotPkt[slot] == nil {
					p := s.hostQ[h][0]
					s.hostQ[h] = s.hostQ[h][1:]
					s.hostCur[h] = p
					s.hostSlot[h] = slot
					s.hostInjected[h] = 0
					s.claimSlot(slot, p)
					s.inNetwork++
					p.lastAdvance = s.now
					break
				}
			}
		}
		// Inject one flit per cycle while credits allow.
		if p := s.hostCur[h]; p != nil {
			slot := s.hostSlot[h]
			if s.credits[slot] > 0 {
				s.credits[slot]--
				s.hostInjected[h]++
				s.flitsInjected++
				p.injected++
				p.lastAdvance = s.now
				var head int32
				if s.hostInjected[h] == 1 {
					head = 1
				}
				s.wheel.schedule(s.now, s.now+1+s.linkDelay[int(slot)/s.cfg.VCs], wwheelEv{
					kind:  evArrive,
					vcIdx: slot,
					amt:   head,
				})
				s.lastProgress = s.now
				if s.hostInjected[h] == int32(s.cfg.PacketFlits) {
					s.hostCur[h] = nil // tail sent; slot frees downstream
				}
			}
		}
	}
}

// route performs VC allocation: headers that have cleared the pipeline
// claim a downstream VC (or the ejection port).
func (s *WormSim) route() {
	vcs := s.cfg.VCs
	for sw := 0; sw < s.nSw; sw++ {
		if s.swSlots[sw] == 0 {
			continue
		}
		for _, c := range s.inChans[sw] {
			for vc := 0; vc < vcs; vc++ {
				slot := s.slotOfChan(c, int8(vc))
				p := s.slotPkt[slot]
				if p == nil || s.routed[slot] || s.readyAt[slot] > s.now {
					continue
				}
				if wait := s.now - s.readyAt[slot]; wait > s.maxHOLWait {
					s.maxHOLWait = wait
				}
				if s.mon.MaxHOLWaitCycles > 0 && s.now-s.readyAt[slot] > s.mon.MaxHOLWaitCycles {
					// This engine has no drop/retry transport, so a worm
					// starved of a route (deadlock, or faults that cut its
					// destination) is caught here rather than draining.
					s.violate(MonitorHOLWait, p.id,
						"headered worm waited %d cycles for a route (bound %d) at switch %d channel %d",
						s.now-s.readyAt[slot], s.mon.MaxHOLWaitCycles, sw, c)
				}
				if p.st.DstSw == int32(sw) {
					s.routed[slot] = true
					s.isEject[slot] = true
					s.lastProgress = s.now
					p.lastAdvance = s.now
					s.released(p, int32(sw))
					continue
				}
				if s.mon.HopTTL > 0 && !p.rerouted && !p.recovering && p.st.Step >= s.mon.HopTTL {
					s.violate(MonitorHopTTL, p.id, "worm exceeded the %d-hop route bound (src sw %d, dst sw %d, at sw %d)",
						s.mon.HopTTL, p.st.SrcSw, p.st.DstSw, sw)
					continue
				}
				if p.recovering {
					// A recovery-reinjected worm rides the up*/down* escape
					// network exclusively (it is escLocked from rebirth).
					s.scratch = s.rec.escapeCandidates(p.st, sw, s.scratch[:0])
				} else {
					s.scratch = s.rt.Candidates(p.st, sw, s.scratch[:0])
				}
				bestSlot, bestChan := int32(-1), int32(-1)
				var bestCr int32 = -1
				bestEscape := false
				bestDetour := false
				var bestState uint8
				hasAdaptive := false
				for _, cand := range s.scratch {
					if cand.Escape || p.escLocked {
						if !cand.Escape {
							continue
						}
					} else {
						hasAdaptive = true
					}
					if cand.Escape && !p.escLocked {
						continue // escape considered below, after patience
					}
					oc := s.chanFor(sw, cand)
					if oc < 0 || (s.faultActive && s.chanDead[oc]) {
						continue
					}
					oslot := s.slotOfChan(oc, cand.VC)
					if s.slotPkt[oslot] != nil {
						continue
					}
					if cr := s.credits[oslot]; cr > bestCr {
						bestSlot, bestChan, bestCr, bestEscape, bestState = oslot, oc, cr, cand.Escape, cand.NewState
						bestDetour = cand.Detour
					}
				}
				if bestSlot < 0 && !p.escLocked {
					patienceUp := !hasAdaptive
					if hasAdaptive {
						if p.blockSince < 0 {
							p.blockSince = s.now
						}
						patienceUp = s.now-p.blockSince >= s.cfg.EscapePatienceCycles
					}
					if patienceUp {
						for _, cand := range s.scratch {
							if !cand.Escape {
								continue
							}
							oc := s.chanFor(sw, cand)
							if oc < 0 || (s.faultActive && s.chanDead[oc]) {
								continue
							}
							oslot := s.slotOfChan(oc, cand.VC)
							if s.slotPkt[oslot] != nil {
								continue
							}
							if cr := s.credits[oslot]; cr > bestCr {
								bestSlot, bestChan, bestCr, bestEscape, bestState = oslot, oc, cr, cand.Escape, cand.NewState
								bestDetour = cand.Detour
							}
						}
					}
				}
				if bestSlot < 0 {
					continue
				}
				p.blockSince = -1
				p.lastAdvance = s.now
				s.released(p, int32(sw))
				s.routed[slot] = true
				s.outSlot[slot] = bestSlot
				s.outChan[slot] = bestChan
				s.claimSlot(bestSlot, p) // claim downstream VC
				p.st.Step++
				p.st.RtState = bestState
				if bestEscape {
					p.escLocked = true
				}
				if bestDetour && !p.rerouted {
					p.rerouted = true
					s.reroutedPkts++
				}
				s.lastProgress = s.now
			}
		}
	}
}

// chanFor resolves a candidate to a directed channel, honoring a pinned
// physical edge when the router specified one.
func (s *WormSim) chanFor(sw int, cand Candidate) int32 {
	if ei := cand.pinnedEdge(); ei >= 0 {
		e := s.g.Edge(int(ei))
		if e.U == int32(sw) && e.V == cand.Next {
			return 2 * ei
		}
		if e.V == int32(sw) && e.U == cand.Next {
			return 2*ei + 1
		}
		return -1
	}
	return s.findOutChan(sw, int(cand.Next))
}

// findOutChan locates a directed channel from sw to next, preferring one
// whose output port is idle this cycle.
func (s *WormSim) findOutChan(sw, next int) int32 {
	best := int32(-1)
	for _, h := range s.g.Neighbors(sw) {
		if int(h.To) != next {
			continue
		}
		e := s.g.Edge(int(h.Edge))
		c := 2 * h.Edge
		if int32(sw) != e.U {
			c = 2*h.Edge + 1
		}
		if s.faultActive && s.chanDead[c] {
			continue
		}
		if s.outUsed[c] != s.now {
			return c
		}
		if best < 0 {
			best = c
		}
	}
	return best
}

// forward moves flits: one per input port and one per output port per
// cycle.
func (s *WormSim) forward() {
	vcs := s.cfg.VCs
	pf := int32(s.cfg.PacketFlits)
	for sw := 0; sw < s.nSw; sw++ {
		ins := s.inChans[sw]
		if len(ins) == 0 || s.swSlots[sw] == 0 {
			continue
		}
		// Through traffic first (round-robin), injection channels after.
		thru := ins[:s.thruCount[sw]]
		var order []int32
		if len(thru) > 0 {
			start := s.rrIn[sw] % len(thru)
			s.orderBuf = s.orderBuf[:0]
			for k := 0; k < len(thru); k++ {
				s.orderBuf = append(s.orderBuf, thru[(start+k)%len(thru)])
			}
			s.orderBuf = append(s.orderBuf, ins[s.thruCount[sw]:]...)
			order = s.orderBuf
		} else {
			order = ins
		}
		moved := false
		for _, c := range order {
			if s.inUsed[c] == s.now {
				continue
			}
			for vc := 0; vc < vcs; vc++ {
				slot := s.slotOfChan(c, int8(vc))
				p := s.slotPkt[slot]
				if p == nil || !s.routed[slot] || s.buffered[slot] == 0 {
					continue
				}
				if s.isEject[slot] {
					host := int(p.dstHost)
					if s.ejUsed[host] == s.now {
						continue
					}
					s.ejUsed[host] = s.now
					s.moveFlit(c, slot, p, pf, true, -1, -1)
					break
				}
				oc := s.outChan[slot]
				oslot := s.outSlot[slot]
				if s.outUsed[oc] == s.now || s.credits[oslot] == 0 {
					continue
				}
				s.outUsed[oc] = s.now
				s.moveFlit(c, slot, p, pf, false, oc, oslot)
				break
			}
			if s.inUsed[c] == s.now {
				moved = true
			}
		}
		if moved {
			s.rrIn[sw]++
		}
	}
}

// moveFlit transfers one flit out of slot, handling tail bookkeeping.
func (s *WormSim) moveFlit(c, slot int32, p *wpacket, pf int32, eject bool, oc, oslot int32) {
	s.inUsed[c] = s.now
	s.buffered[slot]--
	s.forwarded[slot]++
	p.lastAdvance = s.now
	s.released(p, s.chanDst[c])
	// Return the freed buffer space to this slot's sender over its wire.
	s.wheel.schedule(s.now, s.now+1+s.linkDelay[c], wwheelEv{kind: evCredit, vcIdx: slot})
	if eject {
		s.flitsEjected++
		if s.forwarded[slot] == pf {
			s.wheel.schedule(s.now, s.now+1+s.cfg.LinkDelayCycles, wwheelEv{kind: evDeliver, pkt: p})
			s.freeSlot(slot)
		}
		s.lastProgress = s.now
		return
	}
	if s.inWindow(s.now) {
		s.chanFlits[oc]++
	}
	s.credits[oslot]--
	var head int32
	if s.forwarded[slot] == 1 {
		head = 1
	}
	s.wheel.schedule(s.now, s.now+1+s.linkDelay[oc], wwheelEv{
		kind:  evArrive,
		vcIdx: oslot,
		amt:   head,
	})
	if s.forwarded[slot] == pf {
		s.freeSlot(slot)
	}
	s.lastProgress = s.now
}

// claimSlot assigns VC slot to worm p.
func (s *WormSim) claimSlot(slot int32, p *wpacket) {
	s.slotPkt[slot] = p
	s.swSlots[s.chanDst[int(slot)/s.cfg.VCs]]++
}

func (s *WormSim) freeSlot(slot int32) {
	s.swSlots[s.chanDst[int(slot)/s.cfg.VCs]]--
	s.slotPkt[slot] = nil
	s.routed[slot] = false
	s.isEject[slot] = false
	s.forwarded[slot] = 0
	s.readyAt[slot] = neverReady
}

// recoverStep is the per-cycle deadlock detection sweep (SetRecovery;
// nil-rec runs skip it). Every worm holding at least one VC slot runs
// the suspect → confirm state machine on its stall clock; confirmation
// requires wormWedged — the structural re-check that no flit of the
// worm can possibly move — so congestion (which always has some movable
// resource) is never aborted. The oldest confirmed worm is torn down,
// at most one per cycle, and an open drain epoch closes once the
// network empties.
func (s *WormSim) recoverStep() {
	if s.rec == nil {
		return
	}
	cfg := &s.rec.cfg
	var victim *wpacket
	var victimSw int32 = -1
	mark := s.now + 1
	for slot, p := range s.slotPkt {
		if p == nil || p.scan == mark {
			continue
		}
		p.scan = mark
		if s.now-p.lastAdvance < cfg.StallThresholdCycles {
			continue
		}
		if p.suspectAt == 0 {
			p.suspectAt = s.now
			continue
		}
		if s.now-p.suspectAt < cfg.ConfirmCycles {
			continue
		}
		if !p.deadlocked {
			if !s.wormWedged(p) {
				// Some resource of the worm can still move: congestion,
				// not dependency deadlock. Re-arm the suspicion window.
				p.suspectAt = s.now
				continue
			}
			p.deadlocked = true
			s.rec.tr.Confirmed(s.now, p.id, s.chanDst[slot/s.cfg.VCs])
		}
		if victim == nil || p.genCycle < victim.genCycle ||
			(p.genCycle == victim.genCycle && p.id < victim.id) {
			victim = p
			victimSw = s.chanDst[slot/s.cfg.VCs]
		}
	}
	if victim != nil && s.rec.tr.CanAbort(s.now) {
		s.abortWorm(victim, victimSw)
	}
	if s.rec.draining && s.inNetwork == 0 {
		s.rec.finishDrain(s.now, func() {
			if fa, ok := s.rt.(FaultAware); ok {
				fa.UpdateFaults(s.edgeDead, s.swDead)
			}
		})
	}
}

// released clears the detection state of a worm that just advanced.
// If it was a confirmed deadlock victim, its resumption is accounted:
// a peer abort restored credits or freed a slot and broke the cycle
// (the Disha outcome — only the victim pays the teardown). With
// recovery disarmed deadlocked is never set and this is a field clear.
func (s *WormSim) released(p *wpacket, sw int32) {
	if p.deadlocked && s.rec != nil {
		s.rec.tr.Release(s.now, p.id, sw)
	}
	p.suspectAt, p.deadlocked = 0, false
}

// finalRecovery resolves the abort backlog at the end of a completed
// run: confirmed worms the one-abort-per-cycle pacing had not reached
// yet are torn down now, so the detected == recovered + lost identity
// holds in every returned Result. abortWorm clears every slot of the
// victim, so the sweep naturally visits each worm once.
func (s *WormSim) finalRecovery() {
	if s.rec == nil {
		return
	}
	for slot, p := range s.slotPkt {
		if p != nil && p.deadlocked {
			s.abortWorm(p, s.chanDst[slot/s.cfg.VCs])
		}
	}
}

// wormWedged is the confirmation pass: true only when no flit of the
// worm can possibly move this cycle — every routed slot with buffered
// flits faces a zero-credit downstream VC, every waiting header has no
// claimable candidate, and the host-side injection (if still streaming)
// is out of credits. A worm with an ejection slot is delivering and
// never wedged (the ejection port drains unconditionally).
func (s *WormSim) wormWedged(p *wpacket) bool {
	vcs := s.cfg.VCs
	for slot, q := range s.slotPkt {
		if q != p {
			continue
		}
		sl := int32(slot)
		if s.isEject[sl] {
			return false
		}
		if s.routed[sl] {
			if s.buffered[sl] > 0 && s.credits[s.outSlot[sl]] > 0 {
				return false
			}
			continue
		}
		if s.readyAt[sl] <= s.now && s.headCanRoute(p, int(s.chanDst[slot/vcs])) {
			return false
		}
	}
	if h := int(p.srcHost); s.hostCur[h] == p && s.credits[s.hostSlot[h]] > 0 {
		return false
	}
	return true
}

// headCanRoute mirrors route()'s claim test: does the worm's waiting
// header have any candidate whose downstream VC slot is free on a live
// channel? Credits are irrelevant for the claim itself.
func (s *WormSim) headCanRoute(p *wpacket, sw int) bool {
	if p.recovering {
		s.scratch = s.rec.escapeCandidates(p.st, sw, s.scratch[:0])
	} else {
		s.scratch = s.rt.Candidates(p.st, sw, s.scratch[:0])
	}
	for _, cand := range s.scratch {
		if p.escLocked && !cand.Escape {
			continue
		}
		oc := s.chanFor(sw, cand)
		if oc < 0 || (s.faultActive && s.chanDead[oc]) {
			continue
		}
		if s.slotPkt[s.slotOfChan(oc, cand.VC)] == nil {
			return true
		}
	}
	return false
}

// abortWorm is the Disha-style progressive teardown of a confirmed
// wormhole deadlock victim: every VC slot of its chain is scrubbed
// (buffered flits discarded, in-flight flits and credits on the wire
// cancelled, flow control reset to full), the host NIC is released if
// the worm was still streaming, and the worm is either re-sourced at
// its host pinned to the escape network or — past the abort budget —
// declared lost. All discarded flits are accounted in AbortedFlits so
// the flit books (auditFlits) stay exact.
func (s *WormSim) abortWorm(p *wpacket, sw int32) {
	chain := s.chainBuf[:0]
	for slot, q := range s.slotPkt {
		if q != p {
			continue
		}
		if s.isEject[slot] {
			return // began delivering; it will drain on its own
		}
		chain = append(chain, int32(slot))
	}
	s.chainBuf = chain[:0]
	for _, sl := range chain {
		s.chainMark[sl] = true
	}
	// Scrub the wheel: flits flying toward a chain slot die with the
	// worm, and credits returning to a chain slot are superseded by the
	// full flow-control reset below.
	for i, wslot := range s.wheel.slots {
		kept := wslot[:0]
		for _, ev := range wslot {
			if (ev.kind == evArrive || ev.kind == evCredit) && s.chainMark[ev.vcIdx] {
				continue
			}
			kept = append(kept, ev)
		}
		s.wheel.slots[i] = kept
	}
	for _, sl := range chain {
		s.chainMark[sl] = false
		s.swSlots[s.chanDst[int(sl)/s.cfg.VCs]]--
		s.slotPkt[sl] = nil
		s.buffered[sl] = 0
		s.forwarded[sl] = 0
		s.routed[sl] = false
		s.isEject[sl] = false
		s.readyAt[sl] = neverReady
		s.credits[sl] = int32(s.cfg.BufFlitsPerVC)
	}
	if h := int(p.srcHost); s.hostCur[h] == p {
		s.hostCur[h] = nil
	}
	flits := int64(p.injected)
	p.injected = 0
	p.suspectAt, p.deadlocked = 0, false
	p.aborts++
	s.inNetwork--
	s.lastProgress = s.now // teardown frees a resource chain: progress
	lost := int(p.aborts) > s.rec.cfg.AbortBudget ||
		(s.faultActive && s.swDead[p.st.SrcSw])
	if lost {
		s.rec.tr.Aborted(s.now, p.id, sw, flits, p.aborts, true)
		s.lostTotal++
		s.inFlight--
		return
	}
	s.rec.tr.Aborted(s.now, p.id, sw, flits, p.aborts, false)
	p.st.Step = 0
	p.st.RtState = 0
	p.blockSince = -1
	p.escLocked = true // reborn directly onto the escape network
	p.recovering = true
	s.hostQ[p.srcHost] = append(s.hostQ[p.srcHost], p)
}

func (s *WormSim) result() Result {
	cyc := s.cfg.CycleNS()
	r := Result{
		OfferedFlitsPerCycle: s.rate,
		OfferedGbps:          s.rate * s.cfg.GbpsPerFlitPerCycle(),
		GeneratedMeasured:    s.genMeasured,
		DeliveredMeasured:    s.delMeasured,
		DeliveredTotal:       s.deliveredTotal,
		GeneratedTotal:       s.generatedTotal,
		InFlightAtEnd:        s.inFlight,
		MaxHOLWaitCycles:     s.maxHOLWait,
		Rerouted:             s.reroutedPkts,
		Lost:                 s.lostTotal,
		InjectedFlits:        s.flitsInjected,
		EjectedFlits:         s.flitsEjected,
		ChannelFlits:         s.chanFlits[:2*s.g.M()],
	}
	flitsPerHostPerCycle := float64(s.flitsInWindow) / float64(s.cfg.MeasureCycles) / float64(s.hosts)
	r.AcceptedGbps = flitsPerHostPerCycle * s.cfg.GbpsPerFlitPerCycle()
	if s.delMeasured > 0 {
		r.AvgLatencyNS = float64(s.latencySum) / float64(s.delMeasured) * cyc
		r.AvgHops = float64(s.hopsSum) / float64(s.delMeasured)
		sorted := append([]int64(nil), s.latencies...)
		sortInt64s(sorted)
		idx := int(float64(len(sorted)) * 0.99)
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		r.P99LatencyNS = float64(sorted[idx]) * cyc
		r.MaxLatencyNS = float64(sorted[len(sorted)-1]) * cyc
	}
	if s.genMeasured > 0 {
		undelivered := s.genMeasured - s.delMeasured
		r.Saturated = float64(undelivered) > 0.02*float64(s.genMeasured)
	}
	if s.rep != nil {
		s.rep.fill(&r, cyc)
	}
	if s.rec != nil {
		s.rec.fill(&r, s.now)
	}
	s.flows.fill(&r)
	return r
}
