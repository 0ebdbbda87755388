package netsim

import "math"

// vct is the virtual cut-through core: credit-based VC flow control over
// whole-packet buffers, so a blocked packet always sits entirely in one
// input VC. Under faults it adds the drop/retry transport: flits caught
// on a dying link or buffered at a dying switch are dropped, heads
// blocked past Config.FaultTimeoutCycles drain back to their source,
// and the source retries with bounded exponential backoff.
type vct struct {
	*Sim

	vcq      []vcQueue
	inBusy   []int64 // input port streaming until (per channel)
	outBusy  []int64 // output port streaming until (per channel)
	hostBusy []int64 // host NIC streaming until (per host)
	ejBusy   []int64 // ejection port busy until (per host)
	rrVC     []int   // per-channel round-robin VC pointer

	// Event-driven allocation state (DESIGN.md §8). swQueued and
	// chQueued count the packets queued at each switch's inputs and at
	// each input channel, so allocate skips idle switches and channels.
	// credVer is bumped on every credit returned to one of a switch's
	// outputs and on grants onto parallel channels; a parked head whose
	// switch's version moved wakes. hops is the arena of cached head
	// routes, emptied at every routing epoch.
	swQueued []int32
	chQueued []int32
	credVer  []uint32
	parallel []bool // per channel: another edge joins the same two switches
	hops     []hop
	fresh    []hop // routes of a head that has none cached

	// Fault transport, armed by a Spec fault plan; it acts only once the
	// first failure fires, keeping zero-fault runs bit-identical.
	retryBudget  int
	retryBackoff int64
	faultTimeout int64
}

// vcEntry is a packet queued in an input VC buffer.
type vcEntry struct {
	pkt        *packet
	routableAt int64 // header arrival + pipeline delay
}

// vcQueue is a FIFO of packets sharing one input VC buffer.
type vcQueue struct {
	entries []vcEntry
	head    int
}

func (q *vcQueue) empty() bool { return q.head >= len(q.entries) }

func (q *vcQueue) front() *vcEntry { return &q.entries[q.head] }

func (q *vcQueue) push(e vcEntry) { q.entries = append(q.entries, e) }

func (q *vcQueue) pop() {
	q.head++
	if q.head >= len(q.entries) {
		q.entries = q.entries[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 > len(q.entries) {
		n := copy(q.entries, q.entries[q.head:])
		q.entries = q.entries[:n]
		q.head = 0
	}
}

// hop is a run of resolved routing options of a queued head: the
// Candidates toward one output on VCs vc..vc+nvc-1 that share their
// flags and next state, with the output channel looked up for the
// current routing epoch.
type hop struct {
	ch    int32 // output channel, -1 when no live channel leads there
	vc    int8
	nvc   uint8
	flags uint8
	state uint8 // Candidate.NewState
}

const (
	hopEscape = 1 << iota
	hopDetour
	// hopParallel marks an unpinned hop whose channel has parallel
	// twins: findOutChan picks among them by busy state at grant time.
	hopParallel
	// hopHeader marks the entry that opens a head's segment in vct.hops;
	// its ch is the owning queue's index. The segment runs to the next
	// header.
	hopHeader
)

func newVCT(s *Sim) *vct {
	cfg := s.cfg
	c := &vct{Sim: s}
	c.vcq = make([]vcQueue, s.nChan*cfg.VCs)
	c.inBusy = make([]int64, s.nChan)
	c.outBusy = make([]int64, s.nChan)
	c.hostBusy = make([]int64, s.hosts)
	c.ejBusy = make([]int64, s.hosts)
	c.rrVC = make([]int, s.nChan)
	c.swQueued = make([]int32, s.nSw)
	c.chQueued = make([]int32, s.nChan)
	c.credVer = make([]uint32, s.nSw)
	c.parallel = make([]bool, s.nChan)
	for sw := 0; sw < s.nSw; sw++ {
		nb := s.g.Neighbors(sw)
		for i, h := range nb {
			for j, o := range nb {
				if i != j && o.To == h.To {
					c.parallel[s.outChanOf(sw, h)] = true
				}
			}
		}
	}
	horizon := int64(cfg.PacketFlits) + s.maxDelay + 2
	if s.plan != nil {
		c.retryBudget = cfg.RetryBudget
		c.retryBackoff = cfg.RetryBackoffCycles
		c.faultTimeout = cfg.FaultTimeoutCycles
		if c.retryBudget == 0 && cfg.RetryBackoffCycles == 0 && cfg.FaultTimeoutCycles == 0 {
			// Hand-rolled Config with unset knobs: use the shipped defaults.
			d := Default()
			c.retryBudget = d.RetryBudget
			c.retryBackoff = d.RetryBackoffCycles
			c.faultTimeout = d.FaultTimeoutCycles
		}
		c.retryBackoff = max(c.retryBackoff, 1)
		if c.faultTimeout < 1 {
			c.faultTimeout = Default().FaultTimeoutCycles
		}
		// The wheel also covers the longest retry backoff.
		horizon += c.retryBackoff << min(max(c.retryBudget-1, 0), 5)
	}
	s.wheel = newTimingWheel(horizon)
	return c
}

// chanFor resolves a candidate to a directed channel, honoring a pinned
// physical edge when the router specified one.
func (c *vct) chanFor(sw int, cand Candidate) int32 {
	if ei := cand.pinnedEdge(); ei >= 0 {
		return c.pinnedChan(sw, cand, ei)
	}
	return c.findOutChan(sw, int(cand.Next))
}

// findOutChan locates the directed channel from sw to next. With parallel
// edges, the first live non-busy one is preferred; dead channels are
// never offered.
func (c *vct) findOutChan(sw, next int) int32 {
	best := int32(-1)
	for _, h := range c.g.Neighbors(sw) {
		if int(h.To) != next {
			continue
		}
		ch := c.outChanOf(sw, h)
		if c.faultActive && c.chanDead[ch] {
			continue
		}
		if c.outBusy[ch] <= c.now {
			return ch
		}
		if best < 0 {
			best = ch
		}
	}
	return best
}

func (c *vct) processEvents() {
	for _, ev := range c.wheel.drain(c.now) {
		switch ev.kind {
		case evArrive:
			if c.faultActive && c.chanDead[int(ev.vcIdx)/c.cfg.VCs] {
				// The link died while these flits were on the wire.
				c.faultDrop(ev.pkt, "FAULT")
				continue
			}
			ev.pkt.wake, ev.pkt.hops = 0, 0
			c.vcq[ev.vcIdx].push(vcEntry{pkt: ev.pkt, routableAt: c.now + c.cfg.PipelineCycles})
			ch := int(ev.vcIdx) / c.cfg.VCs
			c.chQueued[ch]++
			c.swQueued[c.chanDst[ch]]++
		case evCredit:
			c.credits[ev.vcIdx] += ev.amt
			if ch := ev.vcIdx / int32(c.cfg.VCs); int(ch) < c.nChan-c.hosts {
				// A credit for one of a switch's outputs: wake its parked
				// heads. The channel's source is its reverse's destination.
				c.credVer[c.chanDst[ch^1]]++
			}
		case evDeliver:
			if c.faultActive && c.swDead[ev.pkt.st.DstSw] {
				// The destination switch died while the packet was crossing
				// the ejection wire.
				c.faultDrop(ev.pkt, "FAULT")
				continue
			}
			c.deliver(ev.pkt)
		case evRetry:
			c.reinject(ev.pkt)
		}
	}
}

// faultDrop handles the loss of one in-flight packet instance to a
// fault: the transport layer reinjects it at the source after a bounded
// exponential backoff until the retry budget runs out, at which point
// the packet is permanently lost. Drops are progress for the watchdog:
// a degraded network that drains unroutable packets is live, not
// deadlocked.
func (c *vct) faultDrop(p *packet, why string) {
	c.inNetwork--
	c.faultDropQueued(p, why)
}

// faultDropQueued is faultDrop for a packet that never left its host
// queue (dead-switch host queues): it was not in the network, so the
// drain-emptiness count is untouched.
func (c *vct) faultDropQueued(p *packet, why string) {
	c.droppedTotal++
	c.lastProgress = c.now
	if int(p.attempts) < c.retryBudget && !c.swDead[p.st.SrcSw] {
		shift := min(p.attempts, 5)
		p.attempts++
		c.retriedTotal++
		c.wheel.schedule(c.now, c.now+(c.retryBackoff<<shift), wheelEv{kind: evRetry, pkt: p})
		c.trace(p, why, "action", "retry", "attempt", p.attempts)
		return
	}
	c.lostTotal++
	c.inFlight--
	c.trace(p, why, "action", "lost", "attempts", p.attempts)
}

// reinject puts a retried packet back on its source host queue with
// fresh routing state.
func (c *vct) reinject(p *packet) {
	c.lastProgress = c.now
	if c.swDead[p.st.SrcSw] {
		c.lostTotal++
		c.inFlight--
		c.trace(p, "RETRY", "action", "lost-src-dead")
		return
	}
	c.restart(p)
	c.trace(p, "REINJECT", "src", p.srcHost, "attempt", p.attempts)
}

// driveHosts starts streaming the head packet of each host queue into
// its switch when the NIC is idle and a VC has a packet's worth of
// credits.
func (c *vct) driveHosts() {
	if c.rec != nil && c.rec.draining {
		return // drain epoch: no new packets enter the network
	}
	vcs := int32(c.cfg.VCs)
	pf := int32(c.cfg.PacketFlits)
	for h := 0; h < c.hosts; h++ {
		if c.faultActive && c.swDead[h/c.cfg.HostsPerSwitch] {
			continue // hosts of a dead switch are offline
		}
		if len(c.hostQ[h]) == 0 || c.hostBusy[h] > c.now {
			continue
		}
		ch := int32(2*c.g.M() + h)
		bestVC := int32(-1)
		var bestCr int32
		for vc := int32(0); vc < vcs; vc++ {
			if cr := c.credits[ch*vcs+vc]; cr >= pf && cr > bestCr {
				bestCr = cr
				bestVC = vc
			}
		}
		if bestVC < 0 {
			continue
		}
		p := c.hostQ[h][0]
		c.hostQ[h] = c.hostQ[h][1:]
		c.inNetwork++
		c.hostBusy[h] = c.now + int64(pf)
		c.credits[ch*vcs+bestVC] -= pf
		c.wheel.schedule(c.now, c.now+1+c.linkDelay[ch], wheelEv{kind: evArrive, vcIdx: ch*vcs + bestVC, pkt: p})
		if c.tracer != nil {
			c.trace(p, "INJECT", "switch", h/c.cfg.HostsPerSwitch, "vc", bestVC)
		}
		c.lastProgress = c.now
	}
}

// allocate performs routing, VC allocation and switch allocation for one
// cycle: every input port may launch at most one packet, every output
// port may accept at most one.
func (c *vct) allocate() {
	now := c.now
	for sw := 0; sw < c.nSw; sw++ {
		if c.swQueued[sw] == 0 || (c.faultActive && c.swDead[sw]) {
			continue
		}
		ins := c.inChans[sw]
		if len(ins) == 0 {
			continue
		}
		// Tier 1: through traffic, round-robin.
		thru := ins[:c.thruCount[sw]]
		granted := false
		if len(thru) > 0 {
			start := c.rrIn[sw] % len(thru)
			for k := 0; k < len(thru); k++ {
				ch := thru[(start+k)%len(thru)]
				if c.chQueued[ch] == 0 || c.inBusy[ch] > now {
					continue
				}
				if c.tryInput(sw, ch) {
					granted = true
				}
			}
			if granted {
				c.rrIn[sw] = (start + 1) % len(thru)
			}
		}
		// Tier 2: injection channels take whatever outputs remain.
		for _, ch := range ins[c.thruCount[sw]:] {
			if c.chQueued[ch] == 0 || c.inBusy[ch] > now {
				continue
			}
			c.tryInput(sw, ch)
		}
	}
}

// tryInput attempts to grant the head packet of one VC of input channel
// ch at switch sw. Returns true if a packet was launched. A parked head
// skips the grant attempt, which would fail, but every per-cycle
// observation still runs in order.
func (c *vct) tryInput(sw int, ch int32) bool {
	vcs, now := c.cfg.VCs, c.now
	startVC := c.rrVC[ch] % vcs
	for j := 0; j < vcs; j++ {
		vc := (startVC + j) % vcs
		q := &c.vcq[ch*int32(vcs)+int32(vc)]
		if q.empty() {
			continue
		}
		e := q.front()
		if e.routableAt > now {
			continue
		}
		if wait := now - e.routableAt; wait > c.maxHOLWait {
			c.maxHOLWait = wait
		}
		if c.mon.MaxHOLWaitCycles > 0 && now-e.routableAt > c.mon.MaxHOLWaitCycles {
			c.violate(MonitorHOLWait, e.pkt.st.PktID,
				"head-of-line packet waited %d cycles (bound %d) at switch %d channel %d",
				now-e.routableAt, c.mon.MaxHOLWaitCycles, sw, ch)
		}
		if c.faultActive && now-e.routableAt > c.faultTimeout && !e.pkt.deadlocked {
			// (A confirmed deadlock victim is excluded: recovery owns it
			// and will abort it within the pacing backlog, keeping the
			// detected == recovered + lost identity exact. With recovery
			// disarmed, deadlocked is never set and nothing changes.)
			// Head-of-line timeout: under faults a packet that cannot get
			// a grant (typically because its destination became
			// unreachable) drains back to the source retry path instead
			// of wedging the network.
			p := e.pkt
			c.dequeue(q, sw, ch)
			c.timedOutTotal++
			c.returnCredits(ch, int32(vc))
			c.faultDrop(p, "TIMEOUT")
			continue
		}
		if p := e.pkt; (p.wake <= now || p.ver != c.credVer[sw]) && c.grant(sw, ch, int32(vc), p) {
			c.dequeue(q, sw, ch)
			c.rrVC[ch] = (vc + 1) % vcs
			return true
		}
		if c.rec != nil {
			c.observeStall(sw, ch, int32(vc), e)
		}
	}
	return false
}

// observeStall advances the deadlock-detection state machine for a head
// packet that just failed to get a grant. First pass: a head stalled
// past StallThresholdCycles becomes a suspect. Second pass: a suspect
// that still cannot move ConfirmCycles later is confirmed — the failed
// grant() call that routed here IS the resource re-check, since it just
// re-examined every candidate output and found all of them held. The
// oldest confirmed packet observed this cycle becomes the abort victim
// (recoverStep). Everything here is passive: no RNG, no flow control.
func (c *vct) observeStall(sw int, ch, vc int32, e *vcEntry) {
	p := e.pkt
	if c.now-e.routableAt < c.rec.cfg.StallThresholdCycles {
		return
	}
	if p.suspectAt == 0 {
		p.suspectAt = c.now
		return
	}
	if c.now-p.suspectAt < c.rec.cfg.ConfirmCycles {
		return
	}
	if !p.deadlocked {
		p.deadlocked = true
		c.rec.tr.Confirmed(c.now, p.st.PktID, int32(sw))
		c.trace(p, "DLKCONF", "switch", sw, "waited", c.now-e.routableAt)
	}
	v := c.rec.victim
	if v == nil || p.genCycle < v.genCycle || (p.genCycle == v.genCycle && p.st.PktID < v.st.PktID) {
		c.rec.victim, c.rec.victimC, c.rec.victimVC, c.rec.victimSw = p, ch, vc, int32(sw)
	}
}

// dequeue removes the head of queue q of input channel ch at switch sw.
func (c *vct) dequeue(q *vcQueue, sw int, ch int32) {
	q.pop()
	c.swQueued[sw]--
	c.chQueued[ch]--
}

// park records that head p at switch sw cannot be granted before cycle
// wake unless a credit returns to one of sw's outputs first.
func (c *vct) park(p *packet, sw int, wake int64) {
	p.wake, p.ver = wake, c.credVer[sw]
}

// routingEpoch forgets every cached route and parked head: the router's
// tables, the death masks or a repaired channel's flow control just
// changed, so every head routes afresh.
func (c *vct) routingEpoch() {
	for i := range c.vcq {
		if q := &c.vcq[i]; !q.empty() {
			q.front().pkt.wake, q.front().pkt.hops = 0, 0
		}
	}
	c.hops = c.hops[:0]
}

// grant routes packet p (currently at the head of input (ch, vc) of
// switch sw) to an output if one is available. Returns true on success;
// on failure the head is parked.
func (c *vct) grant(sw int, ch, vc int32, p *packet) bool {
	pf := int64(c.cfg.PacketFlits)
	if int32(sw) == p.st.DstSw {
		// Ejection to the destination host.
		host := int(p.dstHost)
		if c.ejBusy[host] > c.now {
			c.park(p, sw, c.ejBusy[host])
			return false
		}
		c.ejBusy[host] = c.now + pf
		c.inBusy[ch] = c.now + pf
		c.wheel.schedule(c.now, c.now+pf+c.cfg.LinkDelayCycles, wheelEv{kind: evDeliver, pkt: p})
		c.returnCredits(ch, vc)
		if c.tracer != nil {
			c.trace(p, "EJECT", "switch", sw, "host", host)
		}
		c.lastProgress = c.now
		c.released(p, int32(sw))
		return true
	}
	if c.mon.HopTTL > 0 && !p.rerouted && !p.recovering && p.st.Step >= c.mon.HopTTL {
		// The packet has already taken HopTTL hops and still is not at
		// its destination: the next grant would exceed the bound.
		c.violate(MonitorHopTTL, p.st.PktID, "packet exceeded the %d-hop route bound (src sw %d, dst sw %d, at sw %d)",
			c.mon.HopTTL, p.st.SrcSw, p.st.DstSw, sw)
		return false
	}
	return c.launch(sw, ch, vc, p, c.routes(sw, p))
}

// routes returns the resolved candidates of head p at switch sw: the
// cached ones, or else fresh ones that launch caches if the grant fails.
func (c *vct) routes(sw int, p *packet) []hop {
	if p.hops > 0 {
		end := int(p.hops)
		for end < len(c.hops) && c.hops[end].flags&hopHeader == 0 {
			end++
		}
		return c.hops[p.hops:end]
	}
	if p.recovering {
		// A recovery-reinjected packet rides the up*/down* escape network
		// exclusively; it never re-enters the routing function whose
		// dependency cycle it was cut out of.
		c.scratch = c.rec.escapeCandidates(p.st, sw, c.scratch[:0])
	} else {
		c.scratch = c.rt.Candidates(p.st, sw, c.scratch[:0])
	}
	c.fresh = c.resolve(sw, c.scratch, c.fresh[:0])
	return c.fresh
}

// resolve appends the hop runs of cands at switch sw to dst, in
// candidate order. Channels that are dead for the whole epoch resolve
// to -1.
func (c *vct) resolve(sw int, cands []Candidate, dst []hop) []hop {
	for i, cand := range cands {
		var flags uint8
		if cand.Escape {
			flags |= hopEscape
		}
		if cand.Detour {
			flags |= hopDetour
		}
		if i > 0 {
			prev, last := cands[i-1], &dst[len(dst)-1]
			if prev.Next == cand.Next && prev.Edge == cand.Edge && last.flags&^hopParallel == flags &&
				last.state == cand.NewState && int(last.vc)+int(last.nvc) == int(cand.VC) && last.nvc < math.MaxUint8 {
				last.nvc++
				continue
			}
		}
		h := hop{ch: c.chanFor(sw, cand), vc: cand.VC, nvc: 1, flags: flags, state: cand.NewState}
		if h.ch >= 0 && c.faultActive && c.chanDead[h.ch] {
			h.ch = -1
		}
		if h.ch >= 0 && cand.pinnedEdge() < 0 && c.parallel[h.ch] {
			h.flags |= hopParallel
		}
		dst = append(dst, h)
	}
	return dst
}

// keep caches the fresh routes of head p of queue qi in the hops arena
// for its later grant attempts.
func (c *vct) keep(qi int32, p *packet, hops []hop) {
	if len(c.hops)+1+len(hops) > cap(c.hops) {
		c.compactHops(1 + len(hops))
	}
	p.hops = int32(len(c.hops)) + 1
	c.hops = append(c.hops, hop{ch: qi, flags: hopHeader})
	c.hops = append(c.hops, hops...)
}

// compactHops slides the segments of heads still cached to the front of
// the hops arena, dropping those whose head has left its queue, and
// doubles the arena unless need more entries leave half of it free.
func (c *vct) compactHops(need int) {
	a := c.hops
	w := 0
	for i := 0; i < len(a); {
		n := 1
		for i+n < len(a) && a[i+n].flags&hopHeader == 0 {
			n++
		}
		if q := &c.vcq[a[i].ch]; !q.empty() && q.front().pkt.hops == int32(i)+1 {
			copy(a[w:], a[i:i+n])
			q.front().pkt.hops = int32(w) + 1
			w += n
		}
		i += n
	}
	a = a[:w]
	if 2*(w+need) > cap(a) {
		grown := make([]hop, w, max(2*cap(a), 2*(w+need)))
		copy(grown, a)
		a = grown
	}
	c.hops = a
}

// hopChan is the output channel a cached hop takes this cycle.
func (c *vct) hopChan(sw int, h hop) int32 {
	if h.flags&hopParallel != 0 {
		return c.findOutChan(sw, int(c.chanDst[h.ch]))
	}
	return h.ch
}

// wakeAt is the first cycle at which the failed grant of head p at
// switch sw could succeed without a credit returning to sw's outputs:
// the earliest expiry of a busy output among the hops it was allowed to
// try (every live parallel twin counts, since findOutChan prefers an
// idle one), or the end of its escape patience.
func (c *vct) wakeAt(sw int, p *packet, hops []hop, patienceUp bool) int64 {
	wake := int64(math.MaxInt64)
	if !patienceUp {
		wake = p.blockSince + c.cfg.EscapePatienceCycles
	}
	for _, h := range hops {
		if h.ch < 0 || (h.flags&hopEscape != 0 && !patienceUp) {
			continue
		}
		if h.flags&hopParallel == 0 {
			if b := c.outBusy[h.ch]; b > c.now && b < wake {
				wake = b
			}
			continue
		}
		next := c.chanDst[h.ch]
		for _, nb := range c.g.Neighbors(sw) {
			if nb.To != next {
				continue
			}
			ch := c.outChanOf(sw, nb)
			if c.faultActive && c.chanDead[ch] {
				continue
			}
			if b := c.outBusy[ch]; b > c.now && b < wake {
				wake = b
			}
		}
	}
	return wake
}

// launch picks the best available candidate and starts the transfer.
// Adaptive candidates are preferred; the escape channel is offered only
// after the packet has been head-blocked for EscapePatienceCycles (or
// immediately when the routing function is purely deterministic and has
// no adaptive options at all).
func (c *vct) launch(sw int, ch, vc int32, p *packet, hops []hop) bool {
	pf := int32(c.cfg.PacketFlits)
	vcs := int32(c.cfg.VCs)
	bestIdx := -1
	var bestCredits int32 = -1
	var bestChan, bestVC int32
	// best scans the runs of one class (adaptive or escape) for the
	// output VC with the most credits, first one on ties.
	best := func(escape uint8) {
		for i, h := range hops {
			if h.flags&hopEscape != escape {
				continue
			}
			oc := c.hopChan(sw, h)
			if oc < 0 || c.outBusy[oc] > c.now {
				continue
			}
			for v := int32(h.vc); v < int32(h.vc)+int32(h.nvc); v++ {
				if cr := c.credits[oc*vcs+v]; cr >= pf && cr > bestCredits {
					bestIdx, bestCredits, bestChan, bestVC = i, cr, oc, v
				}
			}
		}
	}
	best(0)
	patienceUp := true
	if bestIdx < 0 {
		// No adaptive grant. Consult the escape only without adaptive
		// options or once patience has run out.
		hasAdaptive := false
		for _, h := range hops {
			if h.flags&hopEscape == 0 {
				hasAdaptive = true
				break
			}
		}
		patienceUp = !hasAdaptive
		if hasAdaptive {
			if p.blockSince < 0 {
				p.blockSince = c.now
			}
			patienceUp = c.now-p.blockSince >= c.cfg.EscapePatienceCycles
		}
		if patienceUp {
			best(hopEscape)
		}
	}
	if bestIdx < 0 {
		c.park(p, sw, c.wakeAt(sw, p, hops, patienceUp))
		if p.hops == 0 {
			c.keep(ch*vcs+vc, p, hops)
		}
		return false
	}
	p.blockSince = -1
	c.released(p, int32(sw))
	h := hops[bestIdx]
	escape := h.flags&hopEscape != 0
	if c.inWindow(c.now) {
		c.grantsInWindow++
		if escape {
			c.escGrantsInWindow++
		}
	}
	if h.flags&hopDetour != 0 && !p.rerouted {
		p.rerouted = true
		c.reroutedPkts++
	}
	pf64 := int64(c.cfg.PacketFlits)
	c.inBusy[ch] = c.now + pf64
	c.outBusy[bestChan] = c.now + pf64
	if c.parallel[bestChan] {
		// A busier twin can change which channel findOutChan offers the
		// parked heads here.
		c.credVer[sw]++
	}
	c.credits[bestChan*vcs+bestVC] -= pf
	if c.inWindow(c.now) {
		c.chanFlits[bestChan] += pf64
	}
	c.wheel.schedule(c.now, c.now+1+c.linkDelay[bestChan], wheelEv{kind: evArrive, vcIdx: bestChan*vcs + bestVC, pkt: p})
	c.returnCredits(ch, vc)
	if c.tracer != nil {
		c.trace(p, "GRANT", "from", sw, "to", c.chanDst[bestChan], "vc", int8(bestVC), "escape", escape)
	}
	p.st.Step++
	p.st.RtState = h.state
	c.lastProgress = c.now
	return true
}

// recoverStep fires at most one abort per cycle: the oldest confirmed
// victim observed by this cycle's allocation pass.
func (c *vct) recoverStep() {
	if v := c.rec.victim; v != nil {
		ch, vc, sw := c.rec.victimC, c.rec.victimVC, c.rec.victimSw
		c.rec.victim = nil
		if c.rec.tr.CanAbort(c.now) {
			c.abortPacket(v, ch, vc, sw)
		}
	}
}

// finalRecovery resolves the abort backlog at the end of a completed
// run: confirmed victims the one-abort-per-cycle pacing had not reached
// yet are torn down now, so the detected == recovered + lost identity
// holds in every returned Result. Confirmed packets are always queue
// heads (only heads run the confirmation pass and a confirmed head can
// leave its queue only by grant, abort, or delivery), so one sweep over
// the head entries suffices.
func (c *vct) finalRecovery() {
	c.rec.victim = nil
	vcs := int32(c.cfg.VCs)
	for sw := 0; sw < c.nSw; sw++ {
		for _, ch := range c.inChans[sw] {
			for vc := int32(0); vc < vcs; vc++ {
				q := &c.vcq[ch*vcs+vc]
				if !q.empty() && q.front().pkt.deadlocked {
					c.abortPacket(q.front().pkt, ch, vc, int32(sw))
				}
			}
		}
	}
}

// abortPacket is the Disha-style progressive teardown: the victim is
// removed from its input VC (restoring the credits exactly as a normal
// departure would), and either re-sourced at its host pinned to the
// escape network, or — past the abort budget, or with a dead source —
// declared lost with full accounting. Teardown is progress for the
// watchdog: it frees a resource chain.
func (c *vct) abortPacket(p *packet, ch, vc, sw int32) {
	q := &c.vcq[ch*int32(c.cfg.VCs)+vc]
	if q.empty() || q.front().pkt != p {
		return // the head moved since observation; no longer wedged here
	}
	c.dequeue(q, int(sw), ch)
	c.returnCredits(ch, vc)
	c.inNetwork--
	c.lastProgress = c.now
	p.suspectAt, p.deadlocked = 0, false
	p.aborts++
	flits := int64(c.cfg.PacketFlits)
	lost := int(p.aborts) > c.rec.cfg.AbortBudget ||
		(c.faultActive && c.swDead[p.st.SrcSw])
	c.rec.tr.Aborted(c.now, p.st.PktID, sw, flits, p.aborts, lost)
	if lost {
		c.lostTotal++
		c.inFlight--
		c.trace(p, "DLKLOST", "switch", sw, "attempts", p.aborts)
		return
	}
	p.recovering = true
	c.restart(p)
	c.trace(p, "DLKABORT", "switch", sw, "attempt", p.aborts)
}

// faultEpoch applies new death masks to the VCT transport: repaired
// channels restart their flow control, flits on dead wires and packets
// at dead switches are dropped.
func (c *vct) faultEpoch() {
	vcs := int32(c.cfg.VCs)
	for _, ch := range c.repaired {
		// Repair: fresh flow-control state. Credits restart at full
		// buffer capacity minus whatever survived in the input VCs
		// (packets already buffered downstream keep draining normally).
		for vc := int32(0); vc < vcs; vc++ {
			q := &c.vcq[ch*vcs+vc]
			occupied := int32(len(q.entries)-q.head) * int32(c.cfg.PacketFlits)
			c.credits[ch*vcs+vc] = int32(c.cfg.BufFlitsPerVC) - occupied
		}
		c.inBusy[ch] = c.now
		c.outBusy[ch] = c.now
	}
	c.scrubWheel()
	c.dropDeadQueues()
}

// scrubWheel removes scheduled events riding channels that are now dead:
// arrivals become fault drops (the flits died on the wire) and pending
// credits evaporate (the channel's flow control resets on repair).
func (c *vct) scrubWheel() {
	vcs := c.cfg.VCs
	var victims []*packet
	for i, slot := range c.wheel.slots {
		kept := slot[:0]
		for _, ev := range slot {
			switch ev.kind {
			case evArrive:
				if c.chanDead[int(ev.vcIdx)/vcs] {
					victims = append(victims, ev.pkt)
					continue
				}
			case evCredit:
				if c.chanDead[int(ev.vcIdx)/vcs] {
					continue
				}
			}
			kept = append(kept, ev)
		}
		c.wheel.slots[i] = kept
	}
	// Drop after the scan: retries scheduled by faultDrop append to
	// wheel slots and must not be visited by the filter above.
	for _, p := range victims {
		c.faultDrop(p, "FAULT")
	}
}

// dropDeadQueues drains the input VCs and host queues of dead switches.
func (c *vct) dropDeadQueues() {
	vcs := c.cfg.VCs
	var victims, queued []*packet
	for sw := 0; sw < c.nSw; sw++ {
		if !c.swDead[sw] {
			continue
		}
		for _, ch := range c.inChans[sw] {
			for vc := 0; vc < vcs; vc++ {
				q := &c.vcq[ch*int32(vcs)+int32(vc)]
				for !q.empty() {
					victims = append(victims, q.front().pkt)
					c.dequeue(q, sw, ch)
				}
			}
		}
		for h := sw * c.cfg.HostsPerSwitch; h < (sw+1)*c.cfg.HostsPerSwitch; h++ {
			queued = append(queued, c.hostQ[h]...)
			c.hostQ[h] = nil
		}
	}
	for _, p := range victims {
		c.faultDrop(p, "FAULT")
	}
	for _, p := range queued {
		c.faultDropQueued(p, "FAULT")
	}
}

// auditFlits is a no-op: VCT moves whole packets and keeps no flit books.
func (c *vct) auditFlits() {}

// returnCredits schedules the freed buffer space of input VC (ch, vc)
// back to the channel's sender once the tail has left and the credit has
// crossed the wire.
func (c *vct) returnCredits(ch, vc int32) {
	c.wheel.schedule(c.now, c.now+int64(c.cfg.PacketFlits)+c.linkDelay[ch], wheelEv{
		kind:  evCredit,
		vcIdx: ch*int32(c.cfg.VCs) + vc,
		amt:   int32(c.cfg.PacketFlits),
	})
}
