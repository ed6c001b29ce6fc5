package reap

import (
	"testing"

	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/testbed"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

func tinyFn() workload.Function {
	return workload.Function{
		Name: "tiny", MemMiB: 64, StateMiB: 32, WSMiB: 8, WSRegions: 10,
		AllocMiB: 4, ComputeMs: 5, WriteFrac: 0.15, Seed: 3,
	}
}

// newFunc registers tinyFn under r on a fresh testbed host.
func newFunc(r *REAP) *testbed.Func {
	h := testbed.New(sim.NewEngine(), testbed.Config{})
	return h.AddFunction(tinyFn(), testbed.Scheme{Name: r.Name(), New: func() prefetch.Prefetcher { return r }}, "tiny.snapmem")
}

func record(t *testing.T, r *REAP, env *prefetch.Env) {
	t.Helper()
	var err error
	env.Host.Eng.Go("rec", func(p *sim.Proc) { err = r.Record(p, env) })
	env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecordCapturesFaultOrder(t *testing.T) {
	fn := tinyFn()
	r := New()
	env := newFunc(r).Env
	record(t, r, env)
	ws := r.WorkingSet()
	if ws == nil || len(ws.Pages) == 0 {
		t.Fatal("no working set")
	}
	// REAP has no allocation filtering: the working set must include
	// free-pool pages touched by allocations.
	hasAlloc := false
	for _, pg := range ws.Pages {
		if pg >= fn.StatePages() {
			hasAlloc = true
		}
	}
	if !hasAlloc {
		t.Fatal("REAP working set missing allocation pages")
	}
	// Contents serialized alongside offsets.
	for i, pg := range ws.Pages {
		if ws.Tags[i] != env.Image.PageTags[pg] {
			t.Fatalf("tag mismatch at ws entry %d", i)
		}
	}
	// Record used direct I/O: page cache untouched.
	if env.Host.Cache.NrCachedPages() != 0 {
		t.Fatalf("record polluted page cache: %d pages", env.Host.Cache.NrCachedPages())
	}
}

func TestInvokeInstallsViaUffd(t *testing.T) {
	r := New()
	f := newFunc(r)
	env := f.Env
	record(t, r, env)

	var stats vmm.InvokeStats
	var err error
	env.Host.Eng.Go("vm", func(p *sim.Proc) { _, stats, _, err = f.ColdStart(p, "vm0", 0, env.InvokeTrace) })
	env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.E2E <= 0 {
		t.Fatal("no E2E")
	}
	// Everything is uffd-installed anonymous memory: no dedupable
	// page-cache pages for guest memory.
	if env.Host.Cache.NrCachedPages() != 0 {
		t.Fatalf("REAP populated the page cache: %d pages", env.Host.Cache.NrCachedPages())
	}
}

func TestNoDedupAcrossSandboxes(t *testing.T) {
	r := New()
	f := newFunc(r)
	env := f.Env
	record(t, r, env)

	anon := make([]int64, 2)
	var err error
	for i := 0; i < 2; i++ {
		i := i
		env.Host.Eng.Go("vm", func(p *sim.Proc) {
			vm, _, _, cerr := f.ColdStart(p, "vm", 0, env.InvokeTrace)
			if err = cerr; err == nil {
				anon[i] = vm.AS.AnonPages()
			}
		})
	}
	env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if anon[0] == 0 || anon[1] == 0 {
		t.Fatalf("anon pages = %v", anon)
	}
	// Each sandbox holds its own full copy.
	if anon[0] < r.WorkingSet().TotalPages() {
		t.Fatalf("vm holds %d anon pages, ws is %d", anon[0], r.WorkingSet().TotalPages())
	}
}

func TestPrepareBeforeRecordFails(t *testing.T) {
	f := newFunc(New())
	var err error
	f.Env.Host.Eng.Go("vm", func(p *sim.Proc) { _, _, _, err = f.ColdStart(p, "vm0", 0, f.Env.InvokeTrace) })
	f.Env.Host.Eng.Run()
	if err == nil {
		t.Fatal("PrepareVM before Record accepted")
	}
}

func TestCapabilities(t *testing.T) {
	c := New().Capabilities()
	if !c.OnDiskWSSerialization || c.InMemoryWSDedup || c.StatelessAllocFiltering || c.KernelSpace {
		t.Fatalf("capabilities = %+v", c)
	}
}

func TestBufferedModePopulatesCache(t *testing.T) {
	r := New()
	r.DirectIO = false
	env := newFunc(r).Env
	record(t, r, env)
	// Buffered record faults snapshot pages through the cache.
	if env.Host.Cache.NrCachedPages() == 0 {
		t.Fatal("buffered record did not populate the cache")
	}
}
