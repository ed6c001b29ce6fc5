package prefetch_test

import (
	"testing"

	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/testbed"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

// newFunc registers a tiny function under l on a fresh testbed host.
func newFunc(l *prefetch.Linux) *testbed.Func {
	fn := workload.Function{
		Name: "tiny", MemMiB: 64, StateMiB: 32, WSMiB: 8, WSRegions: 10,
		AllocMiB: 4, ComputeMs: 5, WriteFrac: 0.15, Seed: 3,
	}
	h := testbed.New(sim.NewEngine(), testbed.Config{})
	return h.AddFunction(fn, testbed.Scheme{Name: l.Name(), New: func() prefetch.Prefetcher { return l }}, "tiny.snapmem")
}

// invoke runs f's record phase, then one cold start.
func invoke(t *testing.T, f *testbed.Func) vmm.InvokeStats {
	t.Helper()
	var stats vmm.InvokeStats
	var err error
	f.Env.Host.Eng.Go("vm", func(p *sim.Proc) {
		if err = f.PF.Record(p, f.Env); err == nil {
			_, stats, _, err = f.ColdStart(p, "vm0", 0, f.Env.InvokeTrace)
		}
	})
	f.Env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestLinuxRAFasterThanNoRA(t *testing.T) {
	ra := invoke(t, newFunc(prefetch.NewLinuxRA()))
	nora := invoke(t, newFunc(prefetch.NewLinuxNoRA()))
	if ra.E2E >= nora.E2E {
		t.Fatalf("RA (%v) not faster than NoRA (%v) on a locality-heavy trace", ra.E2E, nora.E2E)
	}
}

func TestLinuxRAOverfetches(t *testing.T) {
	envRA, envNo := newFunc(prefetch.NewLinuxRA()), newFunc(prefetch.NewLinuxNoRA())
	invoke(t, envRA)
	invoke(t, envNo)
	if envRA.Env.Host.Dev.Stats().BytesRead <= envNo.Env.Host.Dev.Stats().BytesRead {
		t.Fatal("RA window did not overfetch relative to NoRA")
	}
	if envRA.Env.Host.Dev.Stats().Requests >= envNo.Env.Host.Dev.Stats().Requests {
		t.Fatal("RA did not reduce request count")
	}
}

func TestLinuxWithWindowName(t *testing.T) {
	l := prefetch.NewLinuxWithWindow(64, "Linux-RA-64")
	if l.Name() != "Linux-RA-64" || l.Readahead != 64 {
		t.Fatalf("window baseline misconfigured: %s %d", l.Name(), l.Readahead)
	}
}

func TestLinuxCapabilities(t *testing.T) {
	c := prefetch.NewLinuxRA().Capabilities()
	if c.OnDiskWSSerialization || !c.InMemoryWSDedup || c.StatelessAllocFiltering {
		t.Fatalf("capabilities = %+v", c)
	}
}

func TestLinuxNoRecordPhase(t *testing.T) {
	env := newFunc(prefetch.NewLinuxRA()).Env
	var err error
	env.Host.Eng.Go("r", func(p *sim.Proc) { err = prefetch.NewLinuxRA().Record(p, env) })
	env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if env.Host.Dev.Stats().Requests != 0 {
		t.Fatal("Linux baseline record phase did I/O")
	}
}
