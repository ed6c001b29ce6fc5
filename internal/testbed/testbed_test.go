package testbed

import (
	"strings"
	"testing"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/core"
	"snapbpf/internal/faults"
	"snapbpf/internal/obs"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/store"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

var (
	snapBPF = Scheme{Name: "SnapBPF", New: func() prefetch.Prefetcher { return core.New() }}
	linuxRA = Scheme{Name: "Linux-RA", New: func() prefetch.Prefetcher { return prefetch.NewLinuxRA() }}
	tiny    = workload.Function{Name: "tiny", MemMiB: 64, StateMiB: 32, WSMiB: 8, WSRegions: 12,
		AllocMiB: 6, ComputeMs: 10, WriteFrac: 0.2, Seed: 7}
)

// coldStarts records every function of hosts (sharing one engine),
// ends the record phase, cold-starts n sandboxes per function and
// shuts them down, failing the test on any error.
func coldStarts(t *testing.T, hosts []*Host, n int) ([]vmm.InvokeStats, []uint64) {
	t.Helper()
	eng := hosts[0].Eng
	var errs []error
	eng.Go("record", func(p *sim.Proc) {
		for _, h := range hosts {
			for _, f := range h.fns {
				errs = append(errs, f.PF.Record(p, f.Env))
			}
		}
	})
	eng.Run()
	for _, h := range hosts {
		h.EndRecord("store-preload")
	}
	eng.Run()
	var stats []vmm.InvokeStats
	var digests []uint64
	for _, h := range hosts {
		for _, f := range h.fns {
			for i := 0; i < n; i++ {
				f, i := f, i
				eng.Go("vm", func(p *sim.Proc) {
					vm, st, d, err := f.ColdStart(p, "vm", i, f.Env.InvokeTrace)
					if errs = append(errs, err); err == nil {
						vm.Shutdown()
						stats, digests = append(stats, st), append(digests, d)
					}
				})
			}
		}
	}
	eng.Run()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return stats, digests
}

func TestColdStartArmed(t *testing.T) {
	h := New(sim.NewEngine(), Config{Check: true, Obs: &obs.Config{Metrics: true}})
	f := h.AddFunction(tiny, snapBPF, "tiny.snapmem")
	if h.chk == nil || h.rec == nil || h.chunks != nil || f.Env.Check != h.rec {
		t.Fatal("armed host: scheme events must reach the recorder, the head of the chain")
	}
	stats, digests := coldStarts(t, []*Host{h}, 2)
	if digests[0] == 0 || digests[0] != digests[1] || stats[0].Prepare <= 0 {
		t.Fatalf("digests %x, stats %+v", digests, stats)
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
	// The recorder forwards to the checker, so both saw both prepares.
	if rep := h.Report(); rep.Obs == nil || rep.Store != nil || rep.CheckCounts.Prepares != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestColdStartUnarmed(t *testing.T) {
	h := New(sim.NewEngine(), Config{Device: blockdev.MicronSATA5300(), Faults: &faults.Plan{}})
	f := h.AddFunction(tiny, linuxRA, "tiny.snapmem")
	if h.inj != nil || h.chk != nil || h.rec != nil || f.Env.Check != nil {
		t.Fatal("a disabled plan and no harness must arm nothing")
	}
	if _, digests := coldStarts(t, []*Host{h}, 1); digests[0] != 0 {
		t.Errorf("digest %016x without a checker", digests[0])
	}
	if rep := h.Report(); rep.Obs != nil || rep.CheckCounts != nil || h.Verify() != nil {
		t.Fatalf("unarmed report = %+v", rep)
	}
	// A restore that cannot succeed surfaces its error.
	f.Env.Fn.MemMiB *= 2
	var err error
	h.Eng.Go("vm", func(p *sim.Proc) { _, _, _, err = f.ColdStart(p, "vm", 0, f.Env.InvokeTrace) })
	if h.Eng.Run(); err == nil {
		t.Fatal("restore of a mismatched image succeeded")
	}
}

func TestStoreTiers(t *testing.T) {
	run := func(setup *store.Setup) (*Host, vmm.InvokeStats) {
		t.Helper()
		h := New(sim.NewEngine(), Config{Check: true, Store: setup})
		h.AddFunction(tiny, snapBPF, "tiny.snapmem")
		stats, _ := coldStarts(t, []*Host{h}, 1)
		return h, stats[0]
	}
	_, local := run(nil)
	warm, warmSt := run(&store.Setup{Tier: store.TierWarm})
	if warm.Report().Store.Fetches == 0 || warmSt.E2E != local.E2E {
		t.Errorf("warm tier: preload must fetch, then cost nothing (E2E %v vs local %v)", warmSt.E2E, local.E2E)
	}
	cold := store.Setup{Tier: store.TierCold, Policy: store.PolicyWSLazy}
	_, coldSt := run(&cold)
	permuted := cold
	permuted.PermuteChunks = 3
	if _, st := run(&permuted); coldSt.E2E <= local.E2E || st.E2E != coldSt.E2E {
		t.Errorf("cold E2E %v (permuted %v) vs local %v", coldSt.E2E, st.E2E, local.E2E)
	}
	sabotaged, _ := run(&store.Setup{Tier: store.TierCold, Policy: store.PolicyFull, SabotageChunk: 1})
	if err := sabotaged.Verify(); err == nil || !strings.Contains(err.Error(), "store-chunk-digest") {
		t.Fatalf("forged manifest hash: want a store-chunk-digest violation, got %v", err)
	}
}

// TestShareClock: every armed host on a shared engine sees the
// region-wide engine event stream, and a shared remote serves every
// host's cache.
func TestShareClock(t *testing.T) {
	eng := sim.NewEngine()
	setup := &store.Setup{Tier: store.TierCold}
	remote := store.NewRemote(setup.Params)
	var hosts []*Host
	for i := 0; i < 3; i++ {
		cfg := Config{Store: setup, Remote: remote}
		if i > 0 { // host0 stays unarmed: ShareClock must skip it
			cfg.Check, cfg.Obs = true, &obs.Config{Metrics: true}
		}
		h := New(eng, cfg)
		h.AddFunction(tiny, snapBPF, "tiny.snapmem")
		hosts = append(hosts, h)
	}
	ShareClock(eng, hosts)
	coldStarts(t, hosts, 1)
	var scheduled []int64
	for _, h := range hosts[1:] {
		if err := h.Verify(); err != nil {
			t.Fatal(err)
		}
		n, _ := h.Report().Obs.Metrics().Counter("snapbpf_sim_events_scheduled_total")
		scheduled = append(scheduled, n)
	}
	if scheduled[0] == 0 || scheduled[0] != scheduled[1] {
		t.Errorf("per-host engine event counts %v: want equal region-wide counts", scheduled)
	}
	if remote.Stats().DupRequests == 0 {
		t.Error("three hosts pulling one snapshot made no duplicate remote requests")
	}
}
