package netsim

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"

	"dsnet/internal/graph"
	"dsnet/internal/layout"
	"dsnet/internal/recovery"
	"dsnet/internal/traffic"
)

// Spec describes one simulation: the switching mode, the fabric and its
// routing function, the workload, and everything armed on top of it.
// New is the only way to build a Sim from it.
type Spec struct {
	// Wormhole selects wormhole switching: flit-granular credits and
	// buffers that may be smaller than a packet, so a blocked packet
	// stalls as a worm across several switches. The zero value is
	// virtual cut-through.
	Wormhole bool
	Config   Config
	Graph    *graph.Graph
	Router   Router

	// The workload is either open-loop traffic, Pattern at Rate
	// flits/cycle/host (a zero Rate needs no Pattern), or a closed-loop
	// Replay, never both.
	Pattern traffic.Pattern
	Rate    float64
	Replay  *Replay

	// Faults is a live fault schedule. Failed channels stop granting;
	// under VCT, flits in flight on a dying link (or buffered at a dying
	// switch) are dropped and the transport layer retries them from the
	// source with bounded exponential backoff until Config.RetryBudget is
	// exhausted. Wormhole faults are masking-only (see wormhole.go). A
	// plan with no events leaves the run bit-identical to a plain one.
	Faults *FaultPlan
	// Recovery arms runtime deadlock detection and progressive recovery
	// (see package recovery and DESIGN.md). It is inert until a stall is
	// confirmed: a run that never confirms a deadlock is bit-identical to
	// an unarmed one.
	Recovery *recovery.Config
	// Monitors arms the runtime invariant monitors. They are passive: a
	// run that trips none is bit-identical to an unmonitored one.
	Monitors Monitors

	// Layout, when set, derives each inter-switch link delay from the
	// physical cable length of the Section VI.B floorplan at NsPerMetre
	// of propagation (typically 5 ns/m) instead of the paper's constant
	// 20 ns, so topologies with longer cables pay for them in simulated
	// latency too. Host links keep Config.LinkDelayCycles.
	Layout     *layout.Layout
	NsPerMetre float64
}

// Sim is a single simulation instance: one topology, one routing
// function, one workload, under one switching mode. The shell here owns
// the hosts, the workload, fault epochs, monitors, recovery books and
// the Result; a switching core (vct.go, wormhole.go) moves the packets.
type Sim struct {
	cfg     Config
	g       *graph.Graph
	rt      Router
	pattern traffic.Pattern
	rate    float64
	rng     *rand.Rand
	rules   rules
	eng     engine
	tracer  io.Writer // Config.Trace where the rules allow it

	nSw   int
	hosts int

	// Directed channels: edge e yields channels 2e (U->V) and 2e+1
	// (V->U); injection channel of host h is 2M + h. inChans lists a
	// switch's through-traffic channels first and injection channels
	// last; thruCount marks the boundary. Both cores serve through-traffic
	// with strict priority over injection, the standard router policy
	// that keeps the network stable past saturation.
	nChan     int
	chanDst   []int32 // destination switch of each channel
	inChans   [][]int32
	thruCount []int
	// linkDelay holds the per-channel wire delay in cycles; maxDelay is
	// its largest value. Both default to Config.LinkDelayCycles; a Spec
	// Layout derives the inter-switch ones from cable lengths.
	linkDelay []int64
	maxDelay  int64
	credits   []int32 // [chan*VCs+vc], buffer space seen by the channel's sender
	chanFlits []int64 // flits forwarded per channel in the window
	hostQ     [][]*packet
	rrIn      []int       // per-switch round-robin input pointer
	scratch   []Candidate // reusable candidate buffer

	wheel *timingWheel

	// Fault state. The death masks are always allocated (all false
	// without a plan) so the hot paths stay branch-light. repaired lists
	// the channels the last fault epoch brought back.
	plan        *FaultPlan
	planIdx     int
	edgeDead    []bool // per edge
	swDead      []bool // per switch
	chanDead    []bool // per directed channel, derived from the masks
	repaired    []int32
	faultActive bool  // at least one failure has occurred
	firstFault  int64 // cycle of the first failure, -1 before

	// rep holds the closed-loop replay state; nil in open-loop runs.
	rep *replayState

	// flows holds per-flow reorder/path-spread accounting, non-nil only
	// when the router implements PathIndexer (multipath source routing).
	flows *flowAcct

	// rec holds the armed deadlock-recovery machinery; nil means disarmed
	// and every recovery hook is skipped. inNetwork counts packets that
	// have left their host queue and not yet been delivered, dropped, or
	// aborted — the emptiness condition for drain epochs.
	rec       *recState
	inNetwork int64

	// mon holds the armed runtime invariant monitors; violation records
	// the first trip, which aborts Run at the end of the cycle.
	// maxHOLWait tracks the largest observed head-of-line wait for
	// Result.MaxHOLWaitCycles (always on; purely passive).
	mon        Monitors
	violation  *MonitorViolation
	maxHOLWait int64

	now             int64
	nextID          int64
	inFlight        int64
	lastProgress    int64
	watchdogTripped bool

	// fault accumulators (VCT transport; wormhole keeps only lostTotal and
	// reroutedPkts)
	droppedTotal  int64 // drop events (flit loss, timeouts), pre-retry
	lostTotal     int64 // packets permanently lost
	retriedTotal  int64 // source reinjections
	timedOutTotal int64 // of droppedTotal, head-of-line timeout drops
	reroutedPkts  int64 // packets that took >= 1 fault-detour grant
	delPostFault  int64 // measured deliveries generated at/after firstFault
	postFaultLats []int64

	// flit books (wormhole): every injected flit is ejected, aborted, or
	// resident
	flitsInjected int64
	flitsEjected  int64

	// measurement accumulators
	genMeasured       int64
	delMeasured       int64 // delivered packets that were generated in window
	latencySum        int64 // cycles, over delMeasured
	hopsSum           int64 // switch-to-switch hops, over delMeasured
	latencies         []int64
	flitsInWindow     int64 // flits delivered during the window (any packet)
	grantsInWindow    int64 // switch grants during the window (VCT)
	escGrantsInWindow int64 // of those, escape-channel grants
	deliveredTotal    int64
	generatedTotal    int64
}

// engine is a switching core behind the shell. Run calls the first four
// methods once per cycle, in this order (recoverStep only with recovery
// armed); the rest fire at the end of a run or at epochs.
type engine interface {
	processEvents() // fire this cycle's timing-wheel events
	driveHosts()    // stream host queues into the switches
	allocate()      // route and move packets through the switches
	recoverStep()   // deadlock detection and abort (recovery armed)
	finalRecovery() // abort the confirmed backlog at the end of a run
	// faultEpoch reacts to new death masks, before the router hears of
	// them; routingEpoch follows every change of the router's tables.
	faultEpoch()
	routingEpoch()
	// auditFlits checks flit conservation where the core keeps flit books.
	auditFlits()
}

// rules are the per-switching behaviours that shape output bytes. Each
// is read in one place; DESIGN.md §9 lists them and the two flagged as
// divergences for the next engine-version bump.
type rules struct {
	stream uint64 // PCG stream of the injection RNG
	// failStop is wormhole admission: every live or dead host draws, and
	// a packet with either end on a dead switch is numbered, then
	// discarded. Without it (VCT) hosts of dead switches skip their draw
	// and packets to dead switches are admitted, to be dropped later.
	failStop bool
	// trace sends the packet lifecycle to Config.Trace.
	trace bool
	// watchdogSaturates forces Result.Saturated when the watchdog trips.
	watchdogSaturates bool
	// postFault keeps the latencies of packets generated after the first
	// failure (Result.PostFault*).
	postFault bool
	// conservation is the conservation monitor's Detail format over
	// (generated, delivered, lost, in-flight).
	conservation string
}

var (
	vctRules = rules{stream: 0x5ca1ab1e, trace: true, watchdogSaturates: true, postFault: true,
		conservation: "generated %d != delivered %d + lost %d + in-flight %d"}
	wormRules = rules{stream: 0x7ea11e77, failStop: true,
		conservation: "generated %[1]d != delivered %[2]d + in-flight %[4]d + lost %[3]d"}
)

// packet is one in-flight message: a whole packet under VCT, a worm
// under wormhole switching. Its id is st.PktID.
type packet struct {
	srcHost  int32
	dstHost  int32
	st       PacketState
	genCycle int64
	// blockSince is the cycle this packet's head first failed to get an
	// adaptive grant, or -1. It drives the escape-patience policy.
	blockSince int64
	// suspectAt is the cycle the packet became a deadlock suspect (0 =
	// unsuspected: suspicion requires now >= StallThresholdCycles > 0, so
	// cycle 0 can never legitimately be a suspicion time).
	suspectAt int64
	// The VCT allocator's memory of the packet as a queue head (DESIGN.md
	// §8), cleared when it enters a queue. hops is 1 + the offset of the
	// header of its cached routes in vct.hops (0 = not cached). A head
	// whose grant failed is parked until cycle wake, or until its
	// switch's credit version moves past ver, whichever is first.
	wake int64
	ver  uint32
	hops int32
	// Wormhole recovery state: lastAdvance is the last cycle any flit of
	// the worm moved or a route was claimed (the stall clock); scan
	// dedupes the multi-slot chain during the detection sweep; injected
	// counts flits the host has streamed so far (the teardown quantum).
	lastAdvance int64
	scan        int64
	injected    int32
	// attempts counts VCT source reinjections after fault drops; bounded
	// by Config.RetryBudget.
	attempts int32
	// msg is the index of the Replay message this packet carries a part
	// of; -1 in open-loop runs.
	msg int32
	// aborts counts recovery teardowns against recovery.Config.AbortBudget
	// (distinct from fault-transport attempts).
	aborts   int32
	measured bool // generated inside the measurement window
	// rerouted marks packets that took at least one fault-detour grant,
	// counted once per packet in Result.Rerouted.
	rerouted bool
	// deadlocked marks a confirmed deadlock participant; recovering pins
	// the packet to the escape network after an abort.
	deadlocked bool
	recovering bool
	// escLocked implements the conservative Duato rule for wormhole: once
	// a worm enters the escape network it stays there until delivery.
	// (VCT can safely bounce back to adaptive channels because whole
	// packets are buffered; a worm stretched across switches cannot.)
	escLocked bool
}

// Deferred mutations are scheduled on a timing wheel: a ring of per-cycle
// slots whose size exceeds the maximum scheduling horizon, so every event
// in slot now%len fires now. This supports heterogeneous per-channel link
// delays, which plain FIFO queues cannot. Each core sizes its own wheel;
// the size fixes the order in which whole-wheel scans meet events.
type wheelEv struct {
	kind  uint8 // evArrive, evCredit, evDeliver, evRetry
	vcIdx int32
	// amt is the credit amount (VCT) or, on a wormhole arrival, 1 for the
	// head flit.
	amt int32
	pkt *packet
}

const (
	evArrive = iota
	evCredit
	evDeliver
	// evRetry reinjects a fault-dropped packet at its source host after
	// its backoff expires (VCT).
	evRetry
)

type timingWheel struct {
	slots [][]wheelEv
}

func newTimingWheel(horizon int64) *timingWheel {
	return &timingWheel{slots: make([][]wheelEv, horizon+1)}
}

func (w *timingWheel) schedule(now, at int64, e wheelEv) {
	if at <= now || at-now >= int64(len(w.slots)) {
		panic("netsim: event outside the timing-wheel horizon")
	}
	idx := at % int64(len(w.slots))
	w.slots[idx] = append(w.slots[idx], e)
}

// drain returns the events due at now and clears the slot.
func (w *timingWheel) drain(now int64) []wheelEv {
	idx := now % int64(len(w.slots))
	evs := w.slots[idx]
	w.slots[idx] = w.slots[idx][:0]
	return evs
}

// New validates sp and builds its simulation.
func New(sp Spec) (*Sim, error) {
	cfg, g := sp.Config, sp.Graph
	validate := cfg.Validate
	if sp.Wormhole {
		validate = cfg.ValidateWormhole
	}
	switch err := validate(); {
	case err != nil:
		return nil, err
	case g == nil:
		return nil, errors.New("netsim: Spec has no Graph")
	case sp.Router == nil:
		return nil, errors.New("netsim: Spec has no Router")
	case sp.Rate < 0 || sp.Rate > 1:
		return nil, fmt.Errorf("netsim: offered load %g flits/cycle/host outside [0,1]", sp.Rate)
	case sp.Replay != nil && (sp.Pattern != nil || sp.Rate > 0):
		return nil, errors.New("netsim: a Replay run takes no Pattern or Rate")
	case sp.Rate > 0 && sp.Pattern == nil:
		return nil, fmt.Errorf("netsim: offered load %g with no traffic Pattern", sp.Rate)
	case sp.Layout != nil && sp.Layout.N != g.N():
		return nil, fmt.Errorf("netsim: graph has %d switches, layout %d", g.N(), sp.Layout.N)
	case sp.NsPerMetre < 0:
		return nil, fmt.Errorf("netsim: negative propagation %g ns/m", sp.NsPerMetre)
	}
	if err := sp.Monitors.validate(); err != nil {
		return nil, err
	}
	if sp.Faults != nil {
		if err := sp.Faults.Validate(g); err != nil {
			return nil, err
		}
	}
	r := vctRules
	if sp.Wormhole {
		r = wormRules
	}
	nSw := g.N()
	hosts := nSw * cfg.HostsPerSwitch
	nChan := 2*g.M() + hosts
	s := &Sim{
		cfg: cfg, g: g, rt: sp.Router, pattern: sp.Pattern, rate: sp.Rate,
		rng:        rand.New(rand.NewPCG(cfg.Seed, r.stream)),
		rules:      r,
		nSw:        nSw,
		hosts:      hosts,
		nChan:      nChan,
		flows:      newFlowAcct(sp.Router),
		plan:       sp.Faults,
		mon:        sp.Monitors,
		firstFault: -1,
	}
	if r.trace {
		s.tracer = cfg.Trace
	}
	if sp.Replay != nil {
		rep, err := newReplayState(sp.Replay, cfg.PacketFlits, hosts)
		if err != nil {
			return nil, err
		}
		s.rep = rep
	}
	if sp.Recovery != nil {
		c := sp.Recovery.Normalize()
		if err := c.Validate(); err != nil {
			return nil, err
		}
		esc, err := recovery.NewEscape(g, cfg.VCs)
		if err != nil {
			return nil, err
		}
		s.rec = newRecState(c, esc)
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
	s.linkDelay = make([]int64, nChan)
	for i := range s.linkDelay {
		s.linkDelay[i] = cfg.LinkDelayCycles
	}
	s.maxDelay = cfg.LinkDelayCycles
	if sp.Layout != nil {
		for i, e := range g.Edges() {
			metres := sp.Layout.CableLength(int(e.U), int(e.V))
			d := max(int64(math.Ceil(metres*sp.NsPerMetre/cfg.CycleNS())), 1)
			s.linkDelay[2*i], s.linkDelay[2*i+1] = d, d
			s.maxDelay = max(s.maxDelay, d)
		}
	}
	s.credits = make([]int32, nChan*cfg.VCs)
	for i := range s.credits {
		s.credits[i] = int32(cfg.BufFlitsPerVC)
	}
	s.chanFlits = make([]int64, nChan)
	s.hostQ = make([][]*packet, hosts)
	s.rrIn = make([]int, nSw)
	s.edgeDead = make([]bool, g.M())
	s.swDead = make([]bool, nSw)
	s.chanDead = make([]bool, nChan)
	if sp.Wormhole {
		s.eng = newWorm(s)
	} else {
		s.eng = newVCT(s)
	}
	return s, nil
}

// NewSim builds a VCT simulation of graph g driven by router rt, traffic
// pattern p and an offered load of rate flits/cycle/host.
func NewSim(cfg Config, g *graph.Graph, rt Router, p traffic.Pattern, rate float64) (*Sim, error) {
	return New(Spec{Config: cfg, Graph: g, Router: rt, Pattern: p, Rate: rate})
}

// NewWormSim builds the wormhole counterpart of NewSim.
func NewWormSim(cfg Config, g *graph.Graph, rt Router, p traffic.Pattern, rate float64) (*Sim, error) {
	return New(Spec{Wormhole: true, Config: cfg, Graph: g, Router: rt, Pattern: p, Rate: rate})
}

// NewSimReplay builds a VCT simulation executing the closed-loop
// workload r on graph g under router rt.
func NewSimReplay(cfg Config, g *graph.Graph, rt Router, r *Replay) (*Sim, error) {
	return New(Spec{Config: cfg, Graph: g, Router: rt, Replay: r})
}

// violate records the first monitor violation; later ones are dropped so
// the reported failure is the root event, not a cascade.
func (s *Sim) violate(monitor string, pkt int64, format string, args ...any) {
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

// checkConservation verifies generated == delivered + lost + in-flight,
// the packet-conservation identity that must hold at every cycle
// boundary (drops are transient: a dropped packet either retries,
// staying in flight, or becomes lost), then the core's flit books.
func (s *Sim) checkConservation() {
	if !s.mon.Conservation {
		return
	}
	if s.generatedTotal != s.deliveredTotal+s.lostTotal+s.inFlight {
		s.violate(MonitorConservation, -1, s.rules.conservation,
			s.generatedTotal, s.deliveredTotal, s.lostTotal, s.inFlight)
	}
	s.eng.auditFlits()
}

// outChanOf returns the directed channel from sw along the given incident
// half-edge.
func (s *Sim) outChanOf(sw int, h graph.Half) int32 {
	e := s.g.Edge(int(h.Edge))
	if int32(sw) == e.U {
		return 2 * h.Edge
	}
	return 2*h.Edge + 1
}

// pinnedChan resolves a candidate pinned to edge ei to its directed
// channel out of sw, or -1 when the edge does not join sw to cand.Next.
func (s *Sim) pinnedChan(sw int, cand Candidate, ei int32) int32 {
	e := s.g.Edge(int(ei))
	if e.U == int32(sw) && e.V == cand.Next {
		return 2 * ei
	}
	if e.V == int32(sw) && e.U == cand.Next {
		return 2*ei + 1
	}
	return -1
}

func (s *Sim) inWindow(t int64) bool {
	return t >= s.cfg.WarmupCycles && t < s.cfg.WarmupCycles+s.cfg.MeasureCycles
}

// Run executes the full schedule (warmup + measurement + drain) and
// returns the aggregated result. In closed-loop replay mode the schedule
// is ignored: the run ends when the workload completes (or can no longer
// make progress, e.g. after permanent packet loss under faults).
func (s *Sim) Run() (Result, error) {
	end := s.cfg.WarmupCycles + s.cfg.MeasureCycles + s.cfg.DrainCycles
	if s.rep != nil {
		end = s.rep.endCycle()
	}
	watchdog := s.cfg.WatchdogCycles
	if watchdog <= 0 {
		watchdog = Default().WatchdogCycles
	}
	s.lastProgress = 0
	for s.now = 0; s.now < end; s.now++ {
		s.applyFaults()
		s.eng.processEvents()
		s.inject()
		s.eng.allocate()
		if s.rec != nil {
			s.eng.recoverStep()
			s.closeDrain()
		}
		if s.violation != nil {
			return s.result(), s.violation
		}
		if s.rep != nil && s.inFlight == 0 {
			// All released packets drained and inject() released every
			// ready message this cycle: the workload is either complete or
			// permanently wedged on lost messages. Either way, done.
			break
		}
		if s.inFlight > 0 && s.now-s.lastProgress > watchdog {
			s.watchdogTripped = true
			return s.result(), &NoProgressError{Cycle: s.now, InFlight: s.inFlight, WatchdogCycles: watchdog}
		}
	}
	if s.rec != nil {
		s.eng.finalRecovery()
	}
	s.checkConservation()
	if s.violation != nil {
		return s.result(), s.violation
	}
	return s.result(), nil
}

// closeDrain ends an open drain epoch once the network has emptied,
// performing the deferred routing-table swap first.
func (s *Sim) closeDrain() {
	if !s.rec.draining || s.inNetwork != 0 {
		return
	}
	s.rec.finishDrain(s.now, func() {
		if fa, ok := s.rt.(FaultAware); ok {
			fa.UpdateFaults(s.edgeDead, s.swDead)
		}
		s.eng.routingEpoch()
	})
}

// trace logs one lifecycle event for packets under the trace budget.
func (s *Sim) trace(p *packet, event string, args ...any) {
	if s.tracer == nil || p.st.PktID >= s.cfg.TracePackets {
		return
	}
	fmt.Fprintf(s.tracer, "t=%-8d pkt=%-6d %-8s", s.now, p.st.PktID, event)
	for i := 0; i+1 < len(args); i += 2 {
		fmt.Fprintf(s.tracer, " %s=%v", args[i], args[i+1])
	}
	fmt.Fprintln(s.tracer)
}

// inject is one cycle of host-side work: sourcing new packets (open-loop
// Bernoulli generation, or dependency-gated release in replay mode) and
// streaming queued packets into the switches. Generation for one host
// cannot affect streaming for another within a cycle, so performing all
// generation first is behavior-identical to the historical interleaved
// loop — the RNG draw order is unchanged.
func (s *Sim) inject() {
	if s.rep != nil {
		s.releaseReady()
	} else {
		s.genTraffic()
	}
	s.eng.driveHosts()
}

// genTraffic runs the open-loop Bernoulli injection process. All RNG
// consumption of the injection path lives here.
func (s *Sim) genTraffic() {
	pktProb := s.rate / float64(s.cfg.PacketFlits)
	hps := s.cfg.HostsPerSwitch
	for h := 0; h < s.hosts; h++ {
		if !s.rules.failStop && s.faultActive && s.swDead[h/hps] {
			continue // hosts of a dead switch are offline
		}
		if s.rng.Float64() >= pktProb {
			continue
		}
		p := s.newPacket(int32(h), -1, s.inWindow(s.now))
		p.dstHost = int32(s.pattern.Dest(h, s.rng))
		p.st.DstSw = p.dstHost / int32(hps)
		if s.rules.failStop && s.faultActive && (s.swDead[p.st.SrcSw] || s.swDead[p.st.DstSw]) {
			// Fail-stop admission: nobody sends from or to a dead switch
			// (the draws above keep the process aligned across fault sets).
			continue
		}
		s.admit(p)
		if s.tracer != nil {
			s.trace(p, "GEN", "src", h, "dst", p.dstHost)
		}
	}
}

// newPacket numbers a packet of message msg (-1 in open-loop runs) from
// host src.
func (s *Sim) newPacket(src, msg int32, measured bool) *packet {
	p := &packet{srcHost: src, genCycle: s.now, measured: measured, blockSince: -1, msg: msg}
	p.st.PktID = s.nextID
	s.nextID++
	p.st.SrcSw = src / int32(s.cfg.HostsPerSwitch)
	return p
}

// admit queues p at its source host and counts it as generated.
func (s *Sim) admit(p *packet) {
	s.hostQ[p.srcHost] = append(s.hostQ[p.srcHost], p)
	s.generatedTotal++
	if p.measured {
		s.genMeasured++
	}
	s.inFlight++
}

// deliver completes packet p at its destination host this cycle.
func (s *Sim) deliver(p *packet) {
	s.inNetwork--
	s.inFlight--
	s.deliveredTotal++
	s.lastProgress = s.now
	if s.inWindow(s.now) {
		s.flitsInWindow += int64(s.cfg.PacketFlits)
	}
	if p.measured {
		s.delMeasured++
		lat := s.now - p.genCycle
		s.latencySum += lat
		s.latencies = append(s.latencies, lat)
		s.hopsSum += int64(p.st.Step)
		if s.rules.postFault && s.firstFault >= 0 && p.genCycle >= s.firstFault {
			s.delPostFault++
			s.postFaultLats = append(s.postFaultLats, lat)
		}
	}
	if s.rep != nil {
		s.rep.onDeliver(p.msg, s.now)
	}
	s.flows.onDeliver(p.srcHost, p.dstHost, p.st)
	if s.tracer != nil {
		s.trace(p, "DELIVER", "host", p.dstHost, "hops", p.st.Step, "latency_cycles", s.now-p.genCycle)
	}
}

// released clears the detection state of a packet that just advanced.
// If it was a confirmed deadlock victim, its resumption is accounted:
// a peer abort broke the cycle and this packet recovered for free (the
// Disha outcome — only the victim pays the teardown). With recovery
// disarmed deadlocked is never set and this is a plain field clear.
func (s *Sim) released(p *packet, sw int32) {
	if p.deadlocked && s.rec != nil {
		s.rec.tr.Release(s.now, p.st.PktID, sw)
		if s.rec.victim == p {
			s.rec.victim = nil
		}
	}
	p.suspectAt, p.deadlocked = 0, false
}

// restart sends an aborted or dropped packet back to its source host
// with fresh routing state.
func (s *Sim) restart(p *packet) {
	p.st.Step = 0
	p.st.RtState = 0
	p.blockSince = -1
	s.hostQ[p.srcHost] = append(s.hostQ[p.srcHost], p)
}

// applyFaults fires the fault events due this cycle: updates the death
// masks, lets the core react, and notifies a fault-aware router.
func (s *Sim) applyFaults() {
	if s.plan == nil || s.planIdx >= len(s.plan.Events) || s.plan.Events[s.planIdx].Cycle > s.now {
		return
	}
	for s.planIdx < len(s.plan.Events) && s.plan.Events[s.planIdx].Cycle <= s.now {
		ev := s.plan.Events[s.planIdx]
		s.planIdx++
		if ev.Edge >= 0 {
			s.edgeDead[ev.Edge] = !ev.Repair
		} else {
			s.swDead[ev.Switch] = !ev.Repair
		}
		if !ev.Repair && !s.faultActive {
			s.faultActive = true
			s.firstFault = s.now
		}
	}
	s.rebuildChanDead()
	s.eng.faultEpoch()
	if fa, ok := s.rt.(FaultAware); ok {
		if s.rec != nil && s.rec.cfg.DrainOnFault {
			// Drain-before-reconfigure: the physical masks above take
			// effect immediately (the hardware is gone), but the routing
			// tables swap only once the network has quiesced (closeDrain).
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
	s.eng.routingEpoch()
	// Fault epoch boundary: the conservation monitor audits the books
	// right after the masks (and, under VCT, wheel and queues) changed.
	s.checkConservation()
}

// rebuildChanDead recomputes the per-channel death mask from the edge
// and switch masks, listing the channels that just came back in
// s.repaired.
func (s *Sim) rebuildChanDead() {
	s.repaired = s.repaired[:0]
	set := func(c int32, dead bool) {
		if s.chanDead[c] != dead {
			s.chanDead[c] = dead
			if !dead {
				s.repaired = append(s.repaired, c)
			}
		}
	}
	for i, e := range s.g.Edges() {
		dead := s.edgeDead[i] || s.swDead[e.U] || s.swDead[e.V]
		set(int32(2*i), dead)
		set(int32(2*i+1), dead)
	}
	for h := 0; h < s.hosts; h++ {
		set(int32(2*s.g.M()+h), s.swDead[h/s.cfg.HostsPerSwitch])
	}
}
