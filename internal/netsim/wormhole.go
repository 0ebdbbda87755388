package netsim

// worm is the wormhole-switching core: virtual-channel flow control with
// flit-granular credits and buffers that may be smaller than a packet,
// so a blocked packet stalls in place as a "worm" stretched across
// several switches, each holding one VC exclusively until the tail
// passes. Section V.A of the paper discusses deadlock avoidance for
// exactly this regime ("wormhole or cut-through routing modes").
//
// The router pipeline model matches VCT: the header is routable
// PipelineCycles after arriving, every flit takes 1 cycle on a link plus
// its wire delay, and each input/output port moves at most one flit per
// cycle.
//
// Faults act at packet granularity only (fail-stop admission): once a
// component dies, new headers are never routed onto its channels, hosts
// on dead switches stop generating, nobody addresses a dead switch, and
// FaultAware routers are notified — but a worm already stretched across
// a dying link keeps draining over it rather than being truncated
// mid-flight (tearing down a partial worm would corrupt every slot in
// its chain). There is no timeout/retry transport either, so a fault set
// that disconnects live traffic from its destination freezes those worms
// in place; they are reported in InFlightAtEnd, and only a full-network
// stall trips the run watchdog. Use VCT for drop/retry degradation
// experiments.
type worm struct {
	*Sim

	// Per (channel, VC) slot state; the slot's buffer space as seen by
	// its sender is Sim.credits.
	slotPkt   []*packet
	buffered  []int32
	readyAt   []int64 // header arrival + pipeline; neverReady until header
	routed    []bool
	isEject   []bool
	outSlot   []int32 // allocated downstream slot (when routed, !isEject)
	outChan   []int32
	forwarded []int32

	// Per-cycle usage stamps.
	inUsed  []int64 // per channel
	outUsed []int64 // per channel
	ejUsed  []int64 // per host

	// Host injection state.
	hostCur      []*packet
	hostSlot     []int32 // allocated injection slot
	hostInjected []int32

	orderBuf []int32
	// swSlots counts the occupied VC slots of each switch's inputs, so
	// route and forward skip idle switches.
	swSlots []int32

	// chainMark/chainBuf are abortWorm's teardown scratch.
	chainMark []bool
	chainBuf  []int32
}

const neverReady = int64(1) << 62

func newWorm(s *Sim) *worm {
	slots := s.nChan * s.cfg.VCs
	c := &worm{Sim: s}
	c.slotPkt = make([]*packet, slots)
	c.buffered = make([]int32, slots)
	c.readyAt = make([]int64, slots)
	for i := range c.readyAt {
		c.readyAt[i] = neverReady
	}
	c.routed = make([]bool, slots)
	c.isEject = make([]bool, slots)
	c.outSlot = make([]int32, slots)
	c.outChan = make([]int32, slots)
	c.forwarded = make([]int32, slots)
	c.inUsed = make([]int64, s.nChan)
	c.outUsed = make([]int64, s.nChan)
	c.ejUsed = make([]int64, s.hosts)
	for i := range c.inUsed {
		c.inUsed[i] = -1
		c.outUsed[i] = -1
	}
	for i := range c.ejUsed {
		c.ejUsed[i] = -1
	}
	c.hostCur = make([]*packet, s.hosts)
	c.hostSlot = make([]int32, s.hosts)
	c.hostInjected = make([]int32, s.hosts)
	c.swSlots = make([]int32, s.nSw)
	if s.rec != nil {
		c.chainMark = make([]bool, slots)
	}
	s.wheel = newTimingWheel(s.maxDelay + s.cfg.PipelineCycles + 4)
	return c
}

func (c *worm) slot(ch int32, vc int8) int32 { return ch*int32(c.cfg.VCs) + int32(vc) }

func (c *worm) processEvents() {
	for _, ev := range c.wheel.drain(c.now) {
		switch ev.kind {
		case evArrive:
			c.buffered[ev.vcIdx]++
			if ev.amt == 1 { // head flit
				c.readyAt[ev.vcIdx] = c.now + c.cfg.PipelineCycles
			}
		case evCredit:
			c.credits[ev.vcIdx]++
		case evDeliver:
			c.deliver(ev.pkt)
		}
	}
}

// driveHosts claims injection VCs and streams queued flits, one per host
// per cycle.
func (c *worm) driveHosts() {
	vcs := c.cfg.VCs
	for h := 0; h < c.hosts; h++ {
		// Claim an injection VC for the next packet (paused while a drain
		// epoch quiesces the network; worms mid-injection keep streaming).
		if c.hostCur[h] == nil && len(c.hostQ[h]) > 0 && (c.rec == nil || !c.rec.draining) {
			ch := int32(2*c.g.M() + h)
			for vc := 0; vc < vcs; vc++ {
				slot := c.slot(ch, int8(vc))
				if c.slotPkt[slot] == nil {
					p := c.hostQ[h][0]
					c.hostQ[h] = c.hostQ[h][1:]
					c.hostCur[h] = p
					c.hostSlot[h] = slot
					c.hostInjected[h] = 0
					c.claimSlot(slot, p)
					c.inNetwork++
					p.lastAdvance = c.now
					break
				}
			}
		}
		// Inject one flit per cycle while credits allow.
		if p := c.hostCur[h]; p != nil {
			slot := c.hostSlot[h]
			if c.credits[slot] > 0 {
				c.credits[slot]--
				c.hostInjected[h]++
				c.flitsInjected++
				p.injected++
				p.lastAdvance = c.now
				var head int32
				if c.hostInjected[h] == 1 {
					head = 1
				}
				c.wheel.schedule(c.now, c.now+1+c.linkDelay[int(slot)/vcs], wheelEv{kind: evArrive, vcIdx: slot, amt: head})
				c.lastProgress = c.now
				if c.hostInjected[h] == int32(c.cfg.PacketFlits) {
					c.hostCur[h] = nil // tail sent; slot frees downstream
				}
			}
		}
	}
}

// allocate routes waiting headers, then moves flits.
func (c *worm) allocate() {
	c.route()
	c.forward()
}

// route performs VC allocation: headers that have cleared the pipeline
// claim a downstream VC (or the ejection port).
func (c *worm) route() {
	vcs := c.cfg.VCs
	for sw := 0; sw < c.nSw; sw++ {
		if c.swSlots[sw] == 0 {
			continue
		}
		for _, ch := range c.inChans[sw] {
			for vc := 0; vc < vcs; vc++ {
				slot := c.slot(ch, int8(vc))
				p := c.slotPkt[slot]
				if p == nil || c.routed[slot] || c.readyAt[slot] > c.now {
					continue
				}
				if wait := c.now - c.readyAt[slot]; wait > c.maxHOLWait {
					c.maxHOLWait = wait
				}
				if c.mon.MaxHOLWaitCycles > 0 && c.now-c.readyAt[slot] > c.mon.MaxHOLWaitCycles {
					// This engine has no drop/retry transport, so a worm
					// starved of a route (deadlock, or faults that cut its
					// destination) is caught here rather than draining.
					c.violate(MonitorHOLWait, p.st.PktID,
						"headered worm waited %d cycles for a route (bound %d) at switch %d channel %d",
						c.now-c.readyAt[slot], c.mon.MaxHOLWaitCycles, sw, ch)
				}
				if p.st.DstSw == int32(sw) {
					c.routed[slot] = true
					c.isEject[slot] = true
					c.lastProgress = c.now
					p.lastAdvance = c.now
					c.released(p, int32(sw))
					continue
				}
				if c.mon.HopTTL > 0 && !p.rerouted && !p.recovering && p.st.Step >= c.mon.HopTTL {
					c.violate(MonitorHopTTL, p.st.PktID, "worm exceeded the %d-hop route bound (src sw %d, dst sw %d, at sw %d)",
						c.mon.HopTTL, p.st.SrcSw, p.st.DstSw, sw)
					continue
				}
				c.candidates(p, sw)
				bestSlot, bestChan := int32(-1), int32(-1)
				var bestCr int32 = -1
				var best Candidate
				// pick scans the candidates of one class for the free
				// downstream VC with the most credits, first one on ties.
				pick := func(escape bool) {
					for _, cand := range c.scratch {
						if cand.Escape != escape {
							continue
						}
						oc := c.chanFor(sw, cand)
						if oc < 0 || (c.faultActive && c.chanDead[oc]) {
							continue
						}
						oslot := c.slot(oc, cand.VC)
						if c.slotPkt[oslot] != nil {
							continue
						}
						if cr := c.credits[oslot]; cr > bestCr {
							bestSlot, bestChan, bestCr, best = oslot, oc, cr, cand
						}
					}
				}
				// An escLocked worm considers only escape candidates; any
				// other tries adaptive ones first and the escape once its
				// patience has run out.
				pick(p.escLocked)
				if bestSlot < 0 && !p.escLocked {
					hasAdaptive := false
					for _, cand := range c.scratch {
						if !cand.Escape {
							hasAdaptive = true
							break
						}
					}
					patienceUp := !hasAdaptive
					if hasAdaptive {
						if p.blockSince < 0 {
							p.blockSince = c.now
						}
						patienceUp = c.now-p.blockSince >= c.cfg.EscapePatienceCycles
					}
					if patienceUp {
						pick(true)
					}
				}
				if bestSlot < 0 {
					continue
				}
				p.blockSince = -1
				p.lastAdvance = c.now
				c.released(p, int32(sw))
				c.routed[slot] = true
				c.outSlot[slot] = bestSlot
				c.outChan[slot] = bestChan
				c.claimSlot(bestSlot, p) // claim downstream VC
				p.st.Step++
				p.st.RtState = best.NewState
				if best.Escape {
					p.escLocked = true
				}
				if best.Detour && !p.rerouted {
					p.rerouted = true
					c.reroutedPkts++
				}
				c.lastProgress = c.now
			}
		}
	}
}

// candidates fills c.scratch with the routing options of worm p at sw.
// A recovery-reinjected worm rides the up*/down* escape network
// exclusively (it is escLocked from rebirth).
func (c *worm) candidates(p *packet, sw int) {
	if p.recovering {
		c.scratch = c.rec.escapeCandidates(p.st, sw, c.scratch[:0])
	} else {
		c.scratch = c.rt.Candidates(p.st, sw, c.scratch[:0])
	}
}

// chanFor resolves a candidate to a directed channel, honoring a pinned
// physical edge when the router specified one.
func (c *worm) chanFor(sw int, cand Candidate) int32 {
	if ei := cand.pinnedEdge(); ei >= 0 {
		return c.pinnedChan(sw, cand, ei)
	}
	return c.findOutChan(sw, int(cand.Next))
}

// findOutChan locates a directed channel from sw to next, preferring one
// whose output port is idle this cycle.
func (c *worm) findOutChan(sw, next int) int32 {
	best := int32(-1)
	for _, h := range c.g.Neighbors(sw) {
		if int(h.To) != next {
			continue
		}
		ch := c.outChanOf(sw, h)
		if c.faultActive && c.chanDead[ch] {
			continue
		}
		if c.outUsed[ch] != c.now {
			return ch
		}
		if best < 0 {
			best = ch
		}
	}
	return best
}

// forward moves flits: one per input port and one per output port per
// cycle.
func (c *worm) forward() {
	vcs := c.cfg.VCs
	pf := int32(c.cfg.PacketFlits)
	for sw := 0; sw < c.nSw; sw++ {
		ins := c.inChans[sw]
		if len(ins) == 0 || c.swSlots[sw] == 0 {
			continue
		}
		// Through traffic first (round-robin), injection channels after.
		thru := ins[:c.thruCount[sw]]
		order := ins
		if len(thru) > 0 {
			start := c.rrIn[sw] % len(thru)
			c.orderBuf = append(append(append(c.orderBuf[:0], thru[start:]...), thru[:start]...), ins[c.thruCount[sw]:]...)
			order = c.orderBuf
		}
		moved := false
		for _, ch := range order {
			if c.inUsed[ch] == c.now {
				continue
			}
			for vc := 0; vc < vcs; vc++ {
				slot := c.slot(ch, int8(vc))
				p := c.slotPkt[slot]
				if p == nil || !c.routed[slot] || c.buffered[slot] == 0 {
					continue
				}
				if c.isEject[slot] {
					host := int(p.dstHost)
					if c.ejUsed[host] == c.now {
						continue
					}
					c.ejUsed[host] = c.now
					c.moveFlit(ch, slot, p, pf, true, -1, -1)
					break
				}
				oc := c.outChan[slot]
				oslot := c.outSlot[slot]
				if c.outUsed[oc] == c.now || c.credits[oslot] == 0 {
					continue
				}
				c.outUsed[oc] = c.now
				c.moveFlit(ch, slot, p, pf, false, oc, oslot)
				break
			}
			if c.inUsed[ch] == c.now {
				moved = true
			}
		}
		if moved {
			c.rrIn[sw]++
		}
	}
}

// moveFlit transfers one flit out of slot, handling tail bookkeeping.
func (c *worm) moveFlit(ch, slot int32, p *packet, pf int32, eject bool, oc, oslot int32) {
	c.inUsed[ch] = c.now
	c.buffered[slot]--
	c.forwarded[slot]++
	p.lastAdvance = c.now
	c.released(p, c.chanDst[ch])
	// Return the freed buffer space to this slot's sender over its wire.
	c.wheel.schedule(c.now, c.now+1+c.linkDelay[ch], wheelEv{kind: evCredit, vcIdx: slot})
	c.lastProgress = c.now
	if eject {
		c.flitsEjected++
		if c.forwarded[slot] == pf {
			c.wheel.schedule(c.now, c.now+1+c.cfg.LinkDelayCycles, wheelEv{kind: evDeliver, pkt: p})
			c.freeSlot(slot)
		}
		return
	}
	if c.inWindow(c.now) {
		c.chanFlits[oc]++
	}
	c.credits[oslot]--
	var head int32
	if c.forwarded[slot] == 1 {
		head = 1
	}
	c.wheel.schedule(c.now, c.now+1+c.linkDelay[oc], wheelEv{kind: evArrive, vcIdx: oslot, amt: head})
	if c.forwarded[slot] == pf {
		c.freeSlot(slot)
	}
}

// claimSlot assigns VC slot to worm p.
func (c *worm) claimSlot(slot int32, p *packet) {
	c.slotPkt[slot] = p
	c.swSlots[c.chanDst[int(slot)/c.cfg.VCs]]++
}

// freeSlot returns slot to the idle state once its tail has left.
func (c *worm) freeSlot(slot int32) {
	c.swSlots[c.chanDst[int(slot)/c.cfg.VCs]]--
	c.slotPkt[slot] = nil
	c.routed[slot] = false
	c.isEject[slot] = false
	c.forwarded[slot] = 0
	c.readyAt[slot] = neverReady
}

// recoverStep is the per-cycle deadlock detection sweep. Every worm
// holding at least one VC slot runs the suspect → confirm state machine
// on its stall clock; confirmation requires wormWedged — the structural
// re-check that no flit of the worm can possibly move — so congestion
// (which always has some movable resource) is never aborted. The oldest
// confirmed worm is torn down, at most one per cycle.
func (c *worm) recoverStep() {
	cfg := &c.rec.cfg
	var victim *packet
	var victimSw int32 = -1
	mark := c.now + 1
	for slot, p := range c.slotPkt {
		if p == nil || p.scan == mark {
			continue
		}
		p.scan = mark
		if c.now-p.lastAdvance < cfg.StallThresholdCycles {
			continue
		}
		if p.suspectAt == 0 {
			p.suspectAt = c.now
			continue
		}
		if c.now-p.suspectAt < cfg.ConfirmCycles {
			continue
		}
		if !p.deadlocked {
			if !c.wormWedged(p) {
				// Some resource of the worm can still move: congestion,
				// not dependency deadlock. Re-arm the suspicion window.
				p.suspectAt = c.now
				continue
			}
			p.deadlocked = true
			c.rec.tr.Confirmed(c.now, p.st.PktID, c.chanDst[slot/c.cfg.VCs])
		}
		if victim == nil || p.genCycle < victim.genCycle ||
			(p.genCycle == victim.genCycle && p.st.PktID < victim.st.PktID) {
			victim = p
			victimSw = c.chanDst[slot/c.cfg.VCs]
		}
	}
	if victim != nil && c.rec.tr.CanAbort(c.now) {
		c.abortWorm(victim, victimSw)
	}
}

// finalRecovery resolves the abort backlog at the end of a completed
// run: confirmed worms the one-abort-per-cycle pacing had not reached
// yet are torn down now, so the detected == recovered + lost identity
// holds in every returned Result. abortWorm clears every slot of the
// victim, so the sweep naturally visits each worm once.
func (c *worm) finalRecovery() {
	for slot, p := range c.slotPkt {
		if p != nil && p.deadlocked {
			c.abortWorm(p, c.chanDst[slot/c.cfg.VCs])
		}
	}
}

// wormWedged is the confirmation pass: true only when no flit of the
// worm can possibly move this cycle — every routed slot with buffered
// flits faces a zero-credit downstream VC, every waiting header has no
// claimable candidate, and the host-side injection (if still streaming)
// is out of credits. A worm with an ejection slot is delivering and
// never wedged (the ejection port drains unconditionally).
func (c *worm) wormWedged(p *packet) bool {
	vcs := c.cfg.VCs
	for slot, q := range c.slotPkt {
		if q != p {
			continue
		}
		sl := int32(slot)
		if c.isEject[sl] {
			return false
		}
		if c.routed[sl] {
			if c.buffered[sl] > 0 && c.credits[c.outSlot[sl]] > 0 {
				return false
			}
			continue
		}
		if c.readyAt[sl] <= c.now && c.headCanRoute(p, int(c.chanDst[slot/vcs])) {
			return false
		}
	}
	if h := int(p.srcHost); c.hostCur[h] == p && c.credits[c.hostSlot[h]] > 0 {
		return false
	}
	return true
}

// headCanRoute mirrors route()'s claim test: does the worm's waiting
// header have any candidate whose downstream VC slot is free on a live
// channel? Credits are irrelevant for the claim itself.
func (c *worm) headCanRoute(p *packet, sw int) bool {
	c.candidates(p, sw)
	for _, cand := range c.scratch {
		if p.escLocked && !cand.Escape {
			continue
		}
		oc := c.chanFor(sw, cand)
		if oc < 0 || (c.faultActive && c.chanDead[oc]) {
			continue
		}
		if c.slotPkt[c.slot(oc, cand.VC)] == nil {
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
func (c *worm) abortWorm(p *packet, sw int32) {
	chain := c.chainBuf[:0]
	for slot, q := range c.slotPkt {
		if q != p {
			continue
		}
		if c.isEject[slot] {
			return // began delivering; it will drain on its own
		}
		chain = append(chain, int32(slot))
	}
	c.chainBuf = chain[:0]
	for _, sl := range chain {
		c.chainMark[sl] = true
	}
	// Scrub the wheel: flits flying toward a chain slot die with the
	// worm, and credits returning to a chain slot are superseded by the
	// full flow-control reset below.
	for i, wslot := range c.wheel.slots {
		kept := wslot[:0]
		for _, ev := range wslot {
			if (ev.kind == evArrive || ev.kind == evCredit) && c.chainMark[ev.vcIdx] {
				continue
			}
			kept = append(kept, ev)
		}
		c.wheel.slots[i] = kept
	}
	for _, sl := range chain {
		c.chainMark[sl] = false
		c.freeSlot(sl)
		c.buffered[sl] = 0
		c.credits[sl] = int32(c.cfg.BufFlitsPerVC)
	}
	if h := int(p.srcHost); c.hostCur[h] == p {
		c.hostCur[h] = nil
	}
	flits := int64(p.injected)
	p.injected = 0
	p.suspectAt, p.deadlocked = 0, false
	p.aborts++
	c.inNetwork--
	c.lastProgress = c.now // teardown frees a resource chain: progress
	lost := int(p.aborts) > c.rec.cfg.AbortBudget ||
		(c.faultActive && c.swDead[p.st.SrcSw])
	c.rec.tr.Aborted(c.now, p.st.PktID, sw, flits, p.aborts, lost)
	if lost {
		c.lostTotal++
		c.inFlight--
		return
	}
	p.escLocked = true // reborn directly onto the escape network
	p.recovering = true
	c.restart(p)
}

// auditFlits structurally verifies flit conservation through
// abort-and-reinject: every flit a host ever injected is by now either
// ejected at a destination, torn down by an abort, buffered in some VC
// slot, or in flight on a wire. Runs at every fault epoch and at run
// end when recovery and the conservation monitor are both armed.
func (c *worm) auditFlits() {
	if c.rec == nil {
		return
	}
	var resident int64
	for _, b := range c.buffered {
		resident += int64(b)
	}
	for _, wslot := range c.wheel.slots {
		for _, ev := range wslot {
			if ev.kind == evArrive {
				resident++
			}
		}
	}
	if c.flitsInjected != c.flitsEjected+c.rec.tr.AbortedFlits+resident {
		c.violate(MonitorConservation, -1,
			"flit books broken: injected %d != ejected %d + aborted %d + resident %d",
			c.flitsInjected, c.flitsEjected, c.rec.tr.AbortedFlits, resident)
	}
}

// faultEpoch and routingEpoch are no-ops: wormhole faults only mask
// channels (see worm), and route() asks the router afresh every cycle.
func (c *worm) faultEpoch()   {}
func (c *worm) routingEpoch() {}
