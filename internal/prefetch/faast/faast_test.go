package faast

import (
	"testing"

	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/testbed"
	"snapbpf/internal/workload"
)

func tinyFn() workload.Function {
	return workload.Function{
		Name: "tiny", MemMiB: 64, StateMiB: 32, WSMiB: 8, WSRegions: 10,
		AllocMiB: 4, ComputeMs: 5, WriteFrac: 0.15, Seed: 3,
	}
}

// newFunc registers tinyFn under f on a fresh testbed host.
func newFunc(f *Faast) *testbed.Func {
	h := testbed.New(sim.NewEngine(), testbed.Config{})
	return h.AddFunction(tinyFn(), testbed.Scheme{Name: f.Name(), New: func() prefetch.Prefetcher { return f }}, "tiny.snapmem")
}

func record(t *testing.T, f *Faast, env *prefetch.Env) {
	t.Helper()
	var err error
	env.Host.Eng.Go("rec", func(p *sim.Proc) { err = f.Record(p, env) })
	env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
}

func TestMetadataFiltersAllocationsFromWS(t *testing.T) {
	fn := tinyFn()
	f := New()
	record(t, f, newFunc(f).Env)
	ws := f.WorkingSet()
	if ws == nil || len(ws.Pages) == 0 {
		t.Fatal("no working set")
	}
	// Unlike REAP, allocator-metadata filtering keeps free-pool pages
	// out of the working set.
	for _, pg := range ws.Pages {
		if pg >= fn.StatePages() {
			t.Fatalf("free-at-snapshot page %d in Faast working set", pg)
		}
	}
}

func TestZeroPageFaultsAvoidDisk(t *testing.T) {
	f := New()
	tf := newFunc(f)
	env := tf.Env
	record(t, f, env)
	env.Host.Dev.ResetStats()

	var err error
	env.Host.Eng.Go("vm", func(p *sim.Proc) { _, _, _, err = tf.ColdStart(p, "vm0", 0, env.InvokeTrace) })
	env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Invocation traffic = working set only; allocation faults were
	// served with UFFDIO_ZEROPAGE, not snapshot reads.
	wsBytes := f.WorkingSet().TotalPages() * 4096
	if got := env.Host.Dev.Stats().BytesRead; got != wsBytes {
		t.Fatalf("device bytes = %d, want %d (ws only)", got, wsBytes)
	}
}

func TestCapabilities(t *testing.T) {
	c := New().Capabilities()
	if !c.OnDiskWSSerialization || c.InMemoryWSDedup || c.StatelessAllocFiltering {
		t.Fatalf("capabilities = %+v", c)
	}
	if !c.NeedsSnapshotScan {
		t.Fatal("Faast must report its metadata pre-scan")
	}
}

func TestPrepareBeforeRecordFails(t *testing.T) {
	tf := newFunc(New())
	var err error
	tf.Env.Host.Eng.Go("vm", func(p *sim.Proc) { _, _, _, err = tf.ColdStart(p, "vm0", 0, tf.Env.InvokeTrace) })
	tf.Env.Host.Eng.Run()
	if err == nil {
		t.Fatal("PrepareVM before Record accepted")
	}
}
