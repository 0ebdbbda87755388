package netsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"dsnet/internal/collectives"
	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/layout"
	"dsnet/internal/multipath"
	"dsnet/internal/netsim"
	"dsnet/internal/recovery"
	"dsnet/internal/topology"
	"dsnet/internal/traffic"
)

// goldenCase is one pinned simulator run. run returns the Result and the
// error of Run; the pin covers both.
type goldenCase struct {
	name string
	want string // hex SHA-256 of json.Marshal(Result), plus the error text
	run  func(t *testing.T) (netsim.Result, error)
}

// runSpec builds and runs one golden Spec; an open-loop Spec without a
// Pattern gets uniform traffic.
func runSpec(t *testing.T, sp netsim.Spec) (netsim.Result, error) {
	t.Helper()
	if sp.Pattern == nil && sp.Rate > 0 {
		sp.Pattern = traffic.Uniform{Hosts: sp.Graph.N() * sp.Config.HostsPerSwitch}
	}
	s, err := netsim.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

func goldenCfg(seed uint64, warmup, measure, drain int64) netsim.Config {
	cfg := netsim.Default()
	cfg.Seed = seed
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = warmup, measure, drain
	return cfg
}

func goldenDSN(t *testing.T, n int) *core.DSN {
	t.Helper()
	d, err := core.New(n, core.CeilLog2(n)-1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func goldenTorus(t *testing.T, k int) *graph.Graph {
	t.Helper()
	tor, err := topology.Torus2D(k, k)
	if err != nil {
		t.Fatal(err)
	}
	return tor.Graph()
}

func duato(t *testing.T, g *graph.Graph) netsim.Router {
	t.Helper()
	rt, err := netsim.NewDuatoUpDown(g, netsim.Default().VCs)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func sourceRouted(t *testing.T, d *core.DSN) *netsim.DSNSourceRouted {
	t.Helper()
	rt, err := netsim.NewDSNSourceRouted(d)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// replayRecovery is the chaos replay tuning: detection well inside the
// default hol-wait bound.
func replayRecovery(drain bool) *recovery.Config {
	rc := recovery.Default()
	rc.StallThresholdCycles = 1024
	rc.ConfirmCycles = 256
	rc.DrainOnFault = drain
	return &rc
}

// goldenCases pins the simulator's output across the allocator's
// wake-rule edge cases: saturation with escape patience, parallel
// edges (pinned and unpinned), repairs that reset a channel's flow
// control, switch deaths, recovery with and without drain epochs (the
// deferred routing swap and the escape-network rebuild), armed
// monitors, and a closed-loop collective.
func goldenCases() []goldenCase {
	return []goldenCase{
		{"duato-dsn64-saturated", "ef7530a3edb0485feff33d16814593ebec99f0e506903ee7c5ad54b2eecb3c80", func(t *testing.T) (netsim.Result, error) {
			g := goldenDSN(t, 64).Graph()
			return runSpec(t, netsim.Spec{Graph: g, Router: duato(t, g), Config: goldenCfg(1, 1000, 2000, 1000), Rate: 0.25})
		}},
		{"duato-torus64-moderate", "42c3f147189d235641e198936c88b343de9d003b0e657b9329f7efef5e22edd2", func(t *testing.T) (netsim.Result, error) {
			g := goldenTorus(t, 8)
			return runSpec(t, netsim.Spec{Graph: g, Router: duato(t, g), Config: goldenCfg(2, 1000, 3000, 2000), Rate: 0.03})
		}},
		{"duato-dsne60-parallel-edges", "0bc235c6955ef32d4b2af84a59b4cba717dea2cb850f7748d36f87545e08e5c2", func(t *testing.T) (netsim.Result, error) {
			d, err := core.NewE(60)
			if err != nil {
				t.Fatal(err)
			}
			g := d.Graph()
			return runSpec(t, netsim.Spec{Graph: g, Router: duato(t, g), Config: goldenCfg(3, 1000, 2000, 1000), Rate: 0.25})
		}},
		{"updown-only-dsn64", "a9b1e1b286cf7aee0cd251c42ffc0e820d9ff2309d752eafdd310c7db08cdb8e", func(t *testing.T) (netsim.Result, error) {
			g := goldenDSN(t, 64).Graph()
			rt, err := netsim.NewUpDownOnly(g, netsim.Default().VCs)
			if err != nil {
				t.Fatal(err)
			}
			return runSpec(t, netsim.Spec{Graph: g, Router: rt, Config: goldenCfg(4, 1000, 2000, 2000), Rate: 0.06})
		}},
		{"source-routed-dsne60-pinned", "dd5880b38f3d143a2e6f1e16bdba4f6473d80901a94ba463e8bffb8898cdc0be", func(t *testing.T) (netsim.Result, error) {
			d, err := core.NewE(60)
			if err != nil {
				t.Fatal(err)
			}
			rt := sourceRouted(t, d)
			return runSpec(t, netsim.Spec{Graph: d.Graph(), Router: rt, Config: goldenCfg(5, 1000, 2000, 2000), Rate: 0.08,
				Monitors: netsim.Monitors{Conservation: true, HopTTL: int32(rt.HopBound()), MaxHOLWaitCycles: 16384}})
		}},
		{"valiant-torus64", "b8379bcf819663d155e3441c935da3ea3372ad9e63cd66c4f81926d89e760d63", func(t *testing.T) (netsim.Result, error) {
			g := goldenTorus(t, 8)
			rt, err := netsim.NewValiant(g, netsim.Default().VCs)
			if err != nil {
				t.Fatal(err)
			}
			return runSpec(t, netsim.Spec{Graph: g, Router: rt, Config: goldenCfg(6, 1000, 2000, 2000), Rate: 0.05})
		}},
		{"multipath-adaptive-torus36-link-faults", "0084c6342b1745da03dc6faa2e0cf1fb7281190d3e0fc87110cb4640077cfaf1", func(t *testing.T) (netsim.Result, error) {
			g := goldenTorus(t, 6)
			rt, err := multipath.New(g, multipath.Config{K: 4, VCs: netsim.Default().VCs, Selector: multipath.SelectorAdaptive, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			plan := netsim.NewFaultPlan(netsim.LinkDown(1500, 3), netsim.LinkDown(2200, 17), netsim.LinkUp(3000, 3))
			return runSpec(t, netsim.Spec{Graph: g, Router: rt, Config: goldenCfg(7, 1000, 2000, 3000), Rate: 0.06, Faults: plan,
				Monitors: netsim.Monitors{Conservation: true}})
		}},
		{"duato-dsn64-link-flap-repair", "63117e647533c72a5fada20d5c892571363371bc14452cdcd5fc12b728d5bb0e", func(t *testing.T) (netsim.Result, error) {
			g := goldenDSN(t, 64).Graph()
			plan := netsim.NewFaultPlan(
				netsim.LinkDown(1200, 5), netsim.LinkUp(1700, 5),
				netsim.LinkDown(2100, 5), netsim.LinkUp(2300, 5),
				netsim.LinkDown(2600, 40), netsim.LinkUp(3400, 40),
			)
			return runSpec(t, netsim.Spec{Graph: g, Router: duato(t, g), Config: goldenCfg(8, 1000, 2500, 2000), Rate: 0.2, Faults: plan,
				Monitors: netsim.Monitors{Conservation: true, MaxHOLWaitCycles: 16384}})
		}},
		{"duato-dsn64-switch-death", "eff568721787f66a43cf2db8c79632593c5612de106ee7a1b13bcef100945256", func(t *testing.T) (netsim.Result, error) {
			g := goldenDSN(t, 64).Graph()
			plan := netsim.NewFaultPlan(netsim.SwitchDown(1500, 9), netsim.LinkDown(2500, 70))
			return runSpec(t, netsim.Spec{Graph: g, Router: duato(t, g), Config: goldenCfg(9, 1000, 2500, 3000), Rate: 0.15, Faults: plan,
				Monitors: netsim.Monitors{Conservation: true}})
		}},
		{"cable-aware-duato-dsn64", "7b23b87200a331930d59d10370930f4358a1e3fcc0ff0040a6d043b720299c5a", func(t *testing.T) (netsim.Result, error) {
			g := goldenDSN(t, 64).Graph()
			l, err := layout.New(64, layout.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			return runSpec(t, netsim.Spec{Graph: g, Router: duato(t, g), Config: goldenCfg(10, 1000, 2000, 1000), Rate: 0.08, Layout: l, NsPerMetre: 5})
		}},
		{"source-routed-dsnv36-recovery-live-swap", "e231542dc0fe1719e180108fa035e1c5c44f4b7ad0c55ae5977a6271864bf6b9", func(t *testing.T) (netsim.Result, error) {
			d, err := core.NewV(36)
			if err != nil {
				t.Fatal(err)
			}
			rt := sourceRouted(t, d)
			plan := netsim.NewFaultPlan(netsim.LinkDown(1500, 5), netsim.LinkDown(2500, 11), netsim.LinkUp(4000, 5))
			return runSpec(t, netsim.Spec{Graph: d.Graph(), Router: rt, Config: goldenCfg(11, 1000, 3000, 8000), Rate: 0.04, Faults: plan,
				Monitors: netsim.Monitors{Conservation: true, HopTTL: int32(rt.HopBound()), MaxHOLWaitCycles: 16384},
				Recovery: replayRecovery(false)})
		}},
		{"source-routed-dsnv36-recovery-drain", "f311b8a688ba7e434250329c3d5018dd70430abd57586cc5f1f3c0b8ed1702f5", func(t *testing.T) (netsim.Result, error) {
			d, err := core.NewV(36)
			if err != nil {
				t.Fatal(err)
			}
			rt := sourceRouted(t, d)
			plan := netsim.NewFaultPlan(netsim.LinkDown(1500, 5), netsim.SwitchDown(2500, 20), netsim.LinkUp(4000, 5))
			return runSpec(t, netsim.Spec{Graph: d.Graph(), Router: rt, Config: goldenCfg(12, 1000, 3000, 8000), Rate: 0.04, Faults: plan,
				Monitors: netsim.Monitors{Conservation: true}, Recovery: replayRecovery(true)})
		}},
		{"duato-dsn64-recovery-drain", "b85bd73e8d3a4f7d37a4425872e749fcb2f548ab723edbb3dcfda038be1cf8cc", func(t *testing.T) (netsim.Result, error) {
			g := goldenDSN(t, 64).Graph()
			plan := netsim.NewFaultPlan(netsim.LinkDown(1500, 12), netsim.LinkUp(2600, 12), netsim.SwitchDown(3000, 33))
			return runSpec(t, netsim.Spec{Graph: g, Router: duato(t, g), Config: goldenCfg(13, 1000, 2500, 4000), Rate: 0.07, Faults: plan,
				Monitors: netsim.Monitors{Conservation: true}, Recovery: replayRecovery(true)})
		}},
		{"unsafe-basic-dsn36-deadlock-recovery", "20fe502176539091be92fbde2742226e1c843dfdecb1b135e879b4fd1afc59b7", func(t *testing.T) (netsim.Result, error) {
			d := goldenDSN(t, 36)
			rt, err := netsim.NewDSNSourceRoutedUnsafe(d)
			if err != nil {
				t.Fatal(err)
			}
			return runSpec(t, netsim.Spec{Graph: d.Graph(), Router: rt, Config: goldenCfg(14, 1000, 3000, 6000), Rate: 0.3,
				Monitors: netsim.Monitors{Conservation: true, MaxHOLWaitCycles: 16384}, Recovery: replayRecovery(false)})
		}},
		{"hol-wait-monitor-trip", "592e2d8c304f35b6e31560c80d264ff9f6da67033129226eabc1f99e1c370993", func(t *testing.T) (netsim.Result, error) {
			d := goldenDSN(t, 36)
			rt, err := netsim.NewDSNSourceRoutedUnsafe(d)
			if err != nil {
				t.Fatal(err)
			}
			return runSpec(t, netsim.Spec{Graph: d.Graph(), Router: rt, Config: goldenCfg(18, 1000, 3000, 6000), Rate: 0.3,
				Monitors: netsim.Monitors{MaxHOLWaitCycles: 1500}})
		}},
		{"hop-ttl-monitor-trip", "41f8f578ee9417c28de656750b4713333074740279873ac761d49197e35d5e8d", func(t *testing.T) (netsim.Result, error) {
			g := goldenDSN(t, 64).Graph()
			rt, err := netsim.NewUpDownOnly(g, netsim.Default().VCs)
			if err != nil {
				t.Fatal(err)
			}
			return runSpec(t, netsim.Spec{Graph: g, Router: rt, Config: goldenCfg(19, 1000, 2000, 1000), Rate: 0.05,
				Monitors: netsim.Monitors{HopTTL: int32(rt.HopBound()) - 2}})
		}},
		{"allreduce-ring-dsn64-replay", "94d1b371a67d2b39c91860fac71636f87215d3d4d8add38a0188e1ebe46448e8", func(t *testing.T) (netsim.Result, error) {
			g := goldenDSN(t, 64).Graph()
			cfg := goldenCfg(15, 0, 1, 0)
			dag, err := collectives.Generate("allreduce", "ring", 32, 33)
			if err != nil {
				t.Fatal(err)
			}
			dag.Hosts = g.N() * cfg.HostsPerSwitch
			return runSpec(t, netsim.Spec{Graph: g, Router: duato(t, g), Config: cfg, Replay: collectives.ToReplay(dag.Permuted(15))})
		}},
		{"wormhole-duato-dsn64-saturated", "261969d78bc14bb010a5563196e5a77eb84f83ce61a80f237cfe56aa1d9af3e1", func(t *testing.T) (netsim.Result, error) {
			g := goldenDSN(t, 64).Graph()
			cfg := goldenCfg(16, 1000, 2000, 1000)
			cfg.BufFlitsPerVC = 8
			return runSpec(t, netsim.Spec{Graph: g, Router: duato(t, g), Config: cfg, Rate: 0.1, Wormhole: true})
		}},
		{"wormhole-source-routed-dsnv36-recovery-drain", "3a864573bae6be627628bb2e00b0f37ca584ab616f36f7f929c484465171baf8", func(t *testing.T) (netsim.Result, error) {
			d, err := core.NewV(36)
			if err != nil {
				t.Fatal(err)
			}
			plan := netsim.NewFaultPlan(netsim.LinkDown(1500, 5), netsim.LinkUp(3000, 5))
			return runSpec(t, netsim.Spec{Graph: d.Graph(), Router: sourceRouted(t, d), Config: goldenCfg(17, 1000, 3000, 8000), Rate: 0.03,
				Wormhole: true, Faults: plan, Monitors: netsim.Monitors{Conservation: true}, Recovery: replayRecovery(true)})
		}},
		{"wormhole-duato-dsn64-switch-death", "f20c4786036e69e1b341199f78d754df74b512b2aeb81c129287225763576192", func(t *testing.T) (netsim.Result, error) {
			g := goldenDSN(t, 64).Graph()
			cfg := goldenCfg(20, 1000, 2500, 3000)
			cfg.BufFlitsPerVC = 8
			plan := netsim.NewFaultPlan(netsim.SwitchDown(1500, 9), netsim.LinkDown(2500, 70))
			return runSpec(t, netsim.Spec{Graph: g, Router: duato(t, g), Config: cfg, Rate: 0.08, Wormhole: true, Faults: plan,
				Monitors: netsim.Monitors{Conservation: true}})
		}},
		{"wormhole-allreduce-ring-dsn64-replay", "d844ab90f6239fef141c78a633f414388a09ae4b7ce8bef2218f31e09c869311", func(t *testing.T) (netsim.Result, error) {
			g := goldenDSN(t, 64).Graph()
			cfg := goldenCfg(21, 0, 1, 0)
			cfg.BufFlitsPerVC = 8
			dag, err := collectives.Generate("allreduce", "ring", 32, 33)
			if err != nil {
				t.Fatal(err)
			}
			dag.Hosts = g.N() * cfg.HostsPerSwitch
			return runSpec(t, netsim.Spec{Graph: g, Router: duato(t, g), Config: cfg, Wormhole: true, Replay: collectives.ToReplay(dag.Permuted(21))})
		}},
		{"wormhole-cable-aware-duato-dsn64", "5a7f87a1aa8312d9c8c8f2e94164b340b0492aed14ec95191d33ba1756b49da0", func(t *testing.T) (netsim.Result, error) {
			g := goldenDSN(t, 64).Graph()
			l, err := layout.New(64, layout.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cfg := goldenCfg(22, 1000, 2000, 1000)
			cfg.BufFlitsPerVC = 8
			return runSpec(t, netsim.Spec{Graph: g, Router: duato(t, g), Config: cfg, Rate: 0.06, Wormhole: true, Layout: l, NsPerMetre: 5})
		}},
		{"wormhole-hol-wait-monitor-trip", "b050838434383254322810c0cdf53e46e99fc689409684870fb5f8ae5e97e834", func(t *testing.T) (netsim.Result, error) {
			d := goldenDSN(t, 36)
			rt, err := netsim.NewDSNSourceRoutedUnsafe(d)
			if err != nil {
				t.Fatal(err)
			}
			cfg := goldenCfg(23, 1000, 3000, 6000)
			cfg.BufFlitsPerVC = 8
			return runSpec(t, netsim.Spec{Graph: d.Graph(), Router: rt, Config: cfg, Rate: 0.3, Wormhole: true,
				Monitors: netsim.Monitors{MaxHOLWaitCycles: 1500}})
		}},
		{"wormhole-multipath-adaptive-torus36-link-faults", "2861c4a486f098a6c9c34af57bf0ba22834501a6091c8791d25aa1b0feb970a9", func(t *testing.T) (netsim.Result, error) {
			g := goldenTorus(t, 6)
			rt, err := multipath.New(g, multipath.Config{K: 4, VCs: netsim.Default().VCs, Selector: multipath.SelectorAdaptive, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			cfg := goldenCfg(24, 1000, 2000, 3000)
			cfg.BufFlitsPerVC = 8
			plan := netsim.NewFaultPlan(netsim.LinkDown(1500, 3), netsim.LinkDown(2200, 17), netsim.LinkUp(3000, 3))
			return runSpec(t, netsim.Spec{Graph: g, Router: rt, Config: cfg, Rate: 0.05, Wormhole: true, Faults: plan,
				Monitors: netsim.Monitors{Conservation: true}})
		}},
	}
}

// TestPinnedGoldens hashes each case's Result and compares it with the
// pinned digest. A mismatch means the simulator's output changed; that
// needs an engine-version bump and an explanation, never a silent
// re-record.
func TestPinnedGoldens(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			res, runErr := c.run(t)
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			h.Write(js)
			if runErr != nil {
				h.Write([]byte("\nerror: " + runErr.Error()))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("digest %s, pinned %s (run error: %v)", got, c.want, runErr)
			}
		})
	}
}
