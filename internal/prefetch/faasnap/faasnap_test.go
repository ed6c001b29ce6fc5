package faasnap

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

// newFunc registers tinyFn under f on a fresh testbed host; the
// snapshot comes from a zero-on-free guest, as FaaSnap's restore
// config asks.
func newFunc(f *FaaSnap) *testbed.Func {
	h := testbed.New(sim.NewEngine(), testbed.Config{})
	return h.AddFunction(tinyFn(), testbed.Scheme{Name: f.Name(), New: func() prefetch.Prefetcher { return f }}, "tiny.snapmem")
}

func record(t *testing.T, f *FaaSnap, env *prefetch.Env) {
	t.Helper()
	var err error
	env.Host.Eng.Go("rec", func(p *sim.Proc) { err = f.Record(p, env) })
	env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
}

func TestZeroScanFindsFreePool(t *testing.T) {
	f := New()
	env := newFunc(f).Env
	record(t, f, env)
	if len(f.ZeroRegions()) == 0 {
		t.Fatal("zero scan found nothing")
	}
	var zeroPages int64
	for _, z := range f.ZeroRegions() {
		zeroPages += z.NPages
	}
	if zeroPages != env.Image.ZeroPages() {
		t.Fatalf("scan found %d zero pages, image has %d", zeroPages, env.Image.ZeroPages())
	}
}

func TestMincoreCaptureExcludesAllocations(t *testing.T) {
	fn := tinyFn()
	f := New()
	env := newFunc(f).Env
	record(t, f, env)
	ws := f.WorkingSet()
	if ws == nil || ws.WSPages == 0 {
		t.Fatal("no working set")
	}
	// Allocation faults hit the anon-mapped zero regions, never the
	// snapshot file, so mincore sees only true state pages.
	for _, reg := range ws.Regions {
		if reg.End() > fn.StatePages() {
			t.Fatalf("region %v beyond state area", reg)
		}
	}
	sum := env.RecordTrace.Summarize()
	if ws.WSPages != sum.UniquePages {
		t.Fatalf("ws pages = %d, trace unique = %d", ws.WSPages, sum.UniquePages)
	}
}

func TestCoalescingInflatesFile(t *testing.T) {
	a := New()
	a.CoalesceGap = 0
	record(t, a, newFunc(a).Env)

	b := New()
	b.CoalesceGap = 256
	record(t, b, newFunc(b).Env)

	if len(b.WorkingSet().Regions) >= len(a.WorkingSet().Regions) {
		t.Fatalf("larger gap did not reduce regions: %d vs %d",
			len(b.WorkingSet().Regions), len(a.WorkingSet().Regions))
	}
	if b.WorkingSet().Inflation() <= a.WorkingSet().Inflation() {
		t.Fatalf("larger gap did not inflate the file: %.3f vs %.3f",
			b.WorkingSet().Inflation(), a.WorkingSet().Inflation())
	}
}

func TestInvokeSharesWSAcrossSandboxes(t *testing.T) {
	f := New()
	tf := newFunc(f)
	env := tf.Env
	record(t, f, env)
	env.Host.Cache.DropCaches()
	env.Host.Dev.ResetStats()

	var err error
	for i := 0; i < 4; i++ {
		env.Host.Eng.Go("vm", func(p *sim.Proc) {
			if _, _, _, cerr := tf.ColdStart(p, "vm", 0, env.InvokeTrace); cerr != nil {
				err = cerr
			}
		})
	}
	env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Working set read once, shared via the page cache.
	wsBytes := f.WorkingSet().TotalPages() * 4096
	if got := env.Host.Dev.Stats().BytesRead; got > wsBytes*3/2 {
		t.Fatalf("device bytes = %d for 4 sandboxes, ws file is %d (dedup broken)", got, wsBytes)
	}
}

func TestRestoreConfigUsesZeroOnFree(t *testing.T) {
	if !New().RestoreConfig(0).ZeroOnFree {
		t.Fatal("FaaSnap must run the zero-on-free guest patch")
	}
}

func TestCapabilities(t *testing.T) {
	c := New().Capabilities()
	if !c.OnDiskWSSerialization || !c.InMemoryWSDedup || c.StatelessAllocFiltering || !c.NeedsSnapshotScan {
		t.Fatalf("capabilities = %+v", c)
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
