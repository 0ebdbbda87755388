package netsim

import (
	"errors"
	"fmt"
)

// ErrNoProgress is the sentinel the progress watchdog wraps: Run aborted
// because no packet was generated, granted, delivered, or dropped for
// Config.WatchdogCycles cycles while traffic was still in flight — the
// signature of a routing deadlock. Callers branch with
// errors.Is(err, ErrNoProgress); the concrete *NoProgressError carries
// the cycle and in-flight count.
var ErrNoProgress = errors.New("netsim: no forward progress (deadlock?)")

// NoProgressError reports a progress-watchdog trip.
type NoProgressError struct {
	Cycle          int64 // cycle the watchdog fired
	InFlight       int64 // packets in flight at that point
	WatchdogCycles int64 // the configured no-progress deadline
}

func (e *NoProgressError) Error() string {
	return fmt.Sprintf("netsim: no progress for %d cycles at cycle %d with %d packets in flight (deadlock?)",
		e.WatchdogCycles, e.Cycle, e.InFlight)
}

func (e *NoProgressError) Unwrap() error { return ErrNoProgress }

// Monitor names, as reported in MonitorViolation.Monitor and by
// ViolatedMonitor. MonitorReconvergence is issued by the chaos engine
// (post-repair throughput check against the golden run), not by the
// simulators themselves.
const (
	MonitorWatchdog      = "watchdog"
	MonitorConservation  = "conservation"
	MonitorHopTTL        = "hop-ttl"
	MonitorHOLWait       = "hol-wait"
	MonitorReconvergence = "reconvergence"
	// MonitorRecovery is issued by the chaos engine when a recovery-armed
	// run ends with confirmed deadlocks that were neither recovered nor
	// accounted as lost (DeadlocksDetected != DeadlocksRecovered +
	// DeadlocksLost).
	MonitorRecovery = "recovery"
)

// MonitorViolation is the structured error a runtime invariant monitor
// (Spec.Monitors) returns from Run when the simulated fabric breaks one of
// the paper-bound invariants: packet conservation, the 3p+r hop bound,
// or the head-of-line starvation limit. The partially accumulated Result
// is still returned alongside it.
type MonitorViolation struct {
	Monitor string // which monitor tripped (Monitor* constants)
	Cycle   int64  // simulation cycle of the violation
	Packet  int64  // offending packet id, or -1 when not packet-specific
	Detail  string // human-readable specifics
}

func (e *MonitorViolation) Error() string {
	return fmt.Sprintf("netsim: %s monitor violation at cycle %d: %s", e.Monitor, e.Cycle, e.Detail)
}

// ViolatedMonitor classifies a Run error: it returns the name of the
// monitor behind it (watchdog trips included) and true, or ("", false)
// for nil and non-monitor errors.
func ViolatedMonitor(err error) (string, bool) {
	var mv *MonitorViolation
	if errors.As(err, &mv) {
		return mv.Monitor, true
	}
	if errors.Is(err, ErrNoProgress) {
		return MonitorWatchdog, true
	}
	return "", false
}

// Monitors configures the runtime invariant monitors of a simulation
// (Spec.Monitors). Each monitor aborts the run with a *MonitorViolation
// the first time its invariant breaks; the zero value disables all of
// them. The always-on progress watchdog (Config.WatchdogCycles) is
// separate and needs no arming here.
type Monitors struct {
	// HopTTL aborts when a packet that never took a fault detour is
	// about to exceed this many switch-to-switch hops. For DSN custom
	// routing the natural value is the Theorem 1(c) routing-diameter
	// bound 3p+r (see HopBounder); detoured packets are exempt because
	// fault detours legitimately exceed the fault-free theorem and are
	// bounded by the transport timeout instead. 0 disables.
	HopTTL int32
	// MaxHOLWaitCycles aborts when a routable head-of-line packet has
	// been waiting this long for a grant: the livelock/starvation
	// detector. Under an armed fault transport the head-of-line timeout
	// (Config.FaultTimeoutCycles) drains blocked packets first, so this
	// monitor fires mainly on fault-free deadlocks/starvation and on
	// engines without a drop transport (wormhole). 0 disables.
	MaxHOLWaitCycles int64
	// Conservation checks the packet-conservation identity
	// generated == delivered + lost + in-flight at every fault epoch
	// (any cycle with fault events) and at the end of the run. Drops
	// are transient (a dropped packet is either retried, staying in
	// flight, or becomes lost), so they do not appear in the identity.
	Conservation bool
}

// validate rejects negative monitor bounds.
func (m Monitors) validate() error {
	if m.HopTTL < 0 {
		return fmt.Errorf("netsim: negative hop TTL %d", m.HopTTL)
	}
	if m.MaxHOLWaitCycles < 0 {
		return fmt.Errorf("netsim: negative head-of-line wait bound %d", m.MaxHOLWaitCycles)
	}
	return nil
}

// HopBounder is implemented by routing functions that can bound the
// switch-to-switch hop count of every fault-free route they produce.
// The chaos engine uses it to derive Monitors.HopTTL from the paper's
// routing-diameter theorems instead of guessing.
type HopBounder interface {
	Router
	// HopBound returns the maximum number of hops of any fault-free
	// route, e.g. 3p+r for DSN custom routing (Theorem 1(c)).
	HopBound() int
}
