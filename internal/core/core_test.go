package core

import (
	"testing"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/ebpf"
	"snapbpf/internal/pagecache"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/snapshot"
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

// newFunc registers fn under s on a fresh testbed host.
func newFunc(fn workload.Function, s *SnapBPF) *testbed.Func {
	h := testbed.New(sim.NewEngine(), testbed.Config{})
	return h.AddFunction(fn, testbed.Scheme{Name: s.Name(), New: func() prefetch.Prefetcher { return s }}, fn.Name+".snapmem")
}

func TestProgramsVerify(t *testing.T) {
	vm := ebpf.NewVM()
	conf := vm.RegisterMap(ebpf.MustNewMap(ebpf.MapTypeArray, "c", 2))
	ws := vm.RegisterMap(ebpf.MustNewMap(ebpf.MapTypeHash, "w", 64))
	if _, err := vm.Load("capture", buildCaptureProgram(conf, ws)); err != nil {
		t.Fatalf("capture program rejected: %v\n%s", err,
			ebpf.Disassemble(buildCaptureProgram(conf, ws)))
	}

	host := vmm.NewHost(blockdev.MicronSATA5300())
	EnsureKfunc(host)
	pconf := host.BPF.RegisterMap(ebpf.MustNewMap(ebpf.MapTypeArray, "p", 4))
	gs := host.BPF.RegisterMap(ebpf.MustNewMap(ebpf.MapTypeArray, "gs", 8))
	gl := host.BPF.RegisterMap(ebpf.MustNewMap(ebpf.MapTypeArray, "gl", 8))
	if _, err := host.BPF.Load("prefetch", buildPrefetchProgram(pconf, gs, gl)); err != nil {
		t.Fatalf("prefetch program rejected: %v", err)
	}
}

func TestCaptureProgramFiltersAndSequences(t *testing.T) {
	vm := ebpf.NewVM()
	conf := ebpf.MustNewMap(ebpf.MapTypeArray, "c", 2)
	ws := ebpf.MustNewMap(ebpf.MapTypeHash, "w", 64)
	confFD, wsFD := vm.RegisterMap(conf), vm.RegisterMap(ws)
	if err := conf.Update(0, 42); err != nil { // target inode 42
		t.Fatal(err)
	}
	if err := conf.Update(1, 0); err != nil {
		t.Fatal(err)
	}
	prog := vm.MustLoad("capture", buildCaptureProgram(confFD, wsFD))

	run := func(inode, page uint64) {
		if _, err := prog.Run(nil, inode, page); err != nil {
			t.Fatal(err)
		}
	}
	run(42, 100)
	run(7, 999) // other inode: filtered out
	run(42, 50)
	run(42, 100) // re-insertion overwrites with a later seq

	if _, ok := ws.Lookup(999); ok {
		t.Fatal("foreign inode page captured")
	}
	if v, ok := ws.Lookup(100); !ok || v != 2 {
		t.Fatalf("ws[100] = %d,%v; want seq 2 (last write wins)", v, ok)
	}
	if v, ok := ws.Lookup(50); !ok || v != 1 {
		t.Fatalf("ws[50] = %d,%v; want seq 1", v, ok)
	}
	if seq, _ := conf.Lookup(1); seq != 3 {
		t.Fatalf("next seq = %d, want 3", seq)
	}
}

func TestPrefetchProgramIssuesGroupsInOrderAndDisables(t *testing.T) {
	host := vmm.NewHost(blockdev.MicronSATA5300())
	EnsureKfunc(host)
	ino := host.Cache.NewInode("snap", 4096)

	pconf := ebpf.MustNewMap(ebpf.MapTypeArray, "p", 4)
	gs := ebpf.MustNewMap(ebpf.MapTypeArray, "gs", 4)
	gl := ebpf.MustNewMap(ebpf.MapTypeArray, "gl", 4)
	pconfFD := host.BPF.RegisterMap(pconf)
	gsFD := host.BPF.RegisterMap(gs)
	glFD := host.BPF.RegisterMap(gl)

	// Three groups, deliberately not in offset order.
	groups := []snapshot.Group{{Start: 100, NPages: 16}, {Start: 10, NPages: 4}, {Start: 500, NPages: 8}}
	for i, g := range groups {
		must(t, gs.Update(uint64(i), uint64(g.Start)))
		must(t, gl.Update(uint64(i), uint64(g.NPages)))
	}
	must(t, pconf.Update(0, ino.ID()))
	must(t, pconf.Update(1, uint64(len(groups))))
	must(t, pconf.Update(2, 0))
	must(t, pconf.Update(3, 1))

	prog := host.BPF.MustLoad("prefetch", buildPrefetchProgram(pconfFD, gsFD, glFD))
	if _, err := prog.Run(host, ino.ID(), 0); err != nil {
		t.Fatal(err)
	}
	host.Eng.Run() // drain the async reads

	for _, g := range groups {
		for pg := g.Start; pg < g.End(); pg++ {
			if !ino.Resident(pg) {
				t.Fatalf("page %d not prefetched", pg)
			}
		}
	}
	if ino.ResidentPages() != 28 {
		t.Fatalf("resident = %d, want 28", ino.ResidentPages())
	}
	if active, _ := pconf.Lookup(3); active != 0 {
		t.Fatal("program did not disable itself after the last group")
	}
	if cursor, _ := pconf.Lookup(2); cursor != 3 {
		t.Fatalf("cursor = %d, want 3", cursor)
	}

	// A second firing must be a no-op (disabled via the map flag).
	before := host.Cache.Stats().RAInserted
	if _, err := prog.Run(host, ino.ID(), 1); err != nil {
		t.Fatal(err)
	}
	if host.Cache.Stats().RAInserted != before {
		t.Fatal("disabled program still issued prefetch")
	}
}

func TestPrefetchProgramBatchLimit(t *testing.T) {
	host := vmm.NewHost(blockdev.MicronSATA5300())
	EnsureKfunc(host)
	ino := host.Cache.NewInode("snap", 4096)

	pconf := ebpf.MustNewMap(ebpf.MapTypeArray, "p", 5)
	gs := ebpf.MustNewMap(ebpf.MapTypeArray, "gs", 4)
	gl := ebpf.MustNewMap(ebpf.MapTypeArray, "gl", 4)
	pconfFD := host.BPF.RegisterMap(pconf)
	gsFD := host.BPF.RegisterMap(gs)
	glFD := host.BPF.RegisterMap(gl)
	for i, g := range []snapshot.Group{{Start: 0, NPages: 2}, {Start: 10, NPages: 2}, {Start: 20, NPages: 2}} {
		must(t, gs.Update(uint64(i), uint64(g.Start)))
		must(t, gl.Update(uint64(i), uint64(g.NPages)))
	}
	must(t, pconf.Update(0, ino.ID()))
	must(t, pconf.Update(1, 3))
	must(t, pconf.Update(2, 0))
	must(t, pconf.Update(3, 1))
	must(t, pconf.Update(4, 1)) // one group per firing

	prog := host.BPF.MustLoad("prefetch", buildPrefetchProgram(pconfFD, gsFD, glFD))
	fire := func() {
		if _, err := prog.Run(host, ino.ID(), 0); err != nil {
			t.Fatal(err)
		}
		host.Eng.Run()
	}
	fire()
	if got := ino.ResidentPages(); got != 2 {
		t.Fatalf("after firing 1: resident = %d, want 2", got)
	}
	if active, _ := pconf.Lookup(3); active != 1 {
		t.Fatal("program disabled with groups remaining")
	}
	fire()
	fire()
	if got := ino.ResidentPages(); got != 6 {
		t.Fatalf("after firing 3: resident = %d, want 6", got)
	}
	if active, _ := pconf.Lookup(3); active != 0 {
		t.Fatal("program still active after the last group")
	}
	if cursor, _ := pconf.Lookup(2); cursor != 3 {
		t.Fatalf("cursor = %d", cursor)
	}
}

func TestPerPageScheduleStaysWithinInsnBudget(t *testing.T) {
	// A pathologically long per-page schedule must never abort the
	// program: the batch limit bounds each firing.
	fn := workload.Function{
		Name: "wide", MemMiB: 256, StateMiB: 200, WSMiB: 130, WSRegions: 4,
		AllocMiB: 2, ComputeMs: 5, WriteFrac: 0.05, Seed: 5,
	}
	s := New()
	s.DisableGrouping = true // one group per page: >30k groups
	f := newFunc(fn, s)
	env := f.Env
	var err error
	env.Host.Eng.Go("rec", func(p *sim.Proc) { err = s.Record(p, env) })
	env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.WorkingSet().Groups) < 2*defaultPrefetchBatch {
		t.Fatalf("schedule too short for the test: %d groups", len(s.WorkingSet().Groups))
	}
	env.Host.Cache.DropCaches()
	env.Host.Eng.Go("vm", func(p *sim.Proc) { _, _, _, err = f.ColdStart(p, "vm0", 0, env.InvokeTrace) })
	env.Host.Eng.Run() // panics on program abort via kprobe OnError=nil
	if err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchProgramFiltersInode(t *testing.T) {
	host := vmm.NewHost(blockdev.MicronSATA5300())
	EnsureKfunc(host)
	ino := host.Cache.NewInode("snap", 4096)
	other := host.Cache.NewInode("other", 4096)

	pconf := ebpf.MustNewMap(ebpf.MapTypeArray, "p", 4)
	gs := ebpf.MustNewMap(ebpf.MapTypeArray, "gs", 1)
	gl := ebpf.MustNewMap(ebpf.MapTypeArray, "gl", 1)
	pconfFD := host.BPF.RegisterMap(pconf)
	gsFD := host.BPF.RegisterMap(gs)
	glFD := host.BPF.RegisterMap(gl)
	must(t, gs.Update(0, 0))
	must(t, gl.Update(0, 8))
	must(t, pconf.Update(0, ino.ID()))
	must(t, pconf.Update(1, 1))
	must(t, pconf.Update(2, 0))
	must(t, pconf.Update(3, 1))

	prog := host.BPF.MustLoad("prefetch", buildPrefetchProgram(pconfFD, gsFD, glFD))
	if _, err := prog.Run(host, other.ID(), 0); err != nil {
		t.Fatal(err)
	}
	host.Eng.Run()
	if ino.ResidentPages() != 0 {
		t.Fatal("prefetch fired for a foreign inode insertion")
	}
	if active, _ := pconf.Lookup(3); active != 1 {
		t.Fatal("foreign firing disabled the program")
	}
}

func TestBuildSchedule(t *testing.T) {
	// Pages 10,11,12 accessed late; page 50 first; page 7 second.
	entries := []ebpf.Entry{
		{Key: 7, Value: 1},
		{Key: 10, Value: 5},
		{Key: 11, Value: 3},
		{Key: 12, Value: 4},
		{Key: 50, Value: 0},
	}
	ws := buildSchedule(entries, false, false)
	want := []snapshot.Group{{Start: 50, NPages: 1}, {Start: 7, NPages: 1}, {Start: 10, NPages: 3}}
	if len(ws.Groups) != len(want) {
		t.Fatalf("groups = %v, want %v", ws.Groups, want)
	}
	for i := range want {
		if ws.Groups[i] != want[i] {
			t.Fatalf("groups = %v, want %v", ws.Groups, want)
		}
	}
}

func TestBuildSchedulePerPage(t *testing.T) {
	entries := []ebpf.Entry{{Key: 10, Value: 0}, {Key: 11, Value: 1}}
	ws := buildSchedule(entries, true, false)
	if len(ws.Groups) != 2 {
		t.Fatalf("per-page groups = %v", ws.Groups)
	}
}

func TestBuildScheduleOffsetOrder(t *testing.T) {
	entries := []ebpf.Entry{{Key: 5, Value: 9}, {Key: 100, Value: 0}}
	ws := buildSchedule(entries, false, true)
	if ws.Groups[0].Start != 5 {
		t.Fatalf("offset order broken: %v", ws.Groups)
	}
}

func TestBuildScheduleEmpty(t *testing.T) {
	ws := buildSchedule(nil, false, false)
	if len(ws.Groups) != 0 {
		t.Fatal("non-empty schedule from no entries")
	}
}

func TestRecordCapturesWorkingSetOnly(t *testing.T) {
	fn := tinyFn()
	s := New()
	env := newFunc(fn, s).Env
	var err error
	env.Host.Eng.Go("rec", func(p *sim.Proc) { err = s.Record(p, env) })
	env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	ws := s.WorkingSet()
	if ws == nil || len(ws.Groups) == 0 {
		t.Fatal("no working set captured")
	}
	sum := env.RecordTrace.Summarize()
	if got := ws.TotalPages(); got != sum.UniquePages {
		t.Fatalf("captured %d pages, trace touches %d unique state pages", got, sum.UniquePages)
	}
	// With PV marking, allocation pages never reach the page cache, so
	// every captured offset must lie in the state area.
	for _, g := range ws.Groups {
		if g.End() > fn.StatePages() {
			t.Fatalf("captured group %v beyond state area %d", g, fn.StatePages())
		}
	}
}

func TestRecordWithoutPVCapturesAllocPages(t *testing.T) {
	fn := tinyFn()
	s := New()
	s.EnablePV = false
	env := newFunc(fn, s).Env
	var err error
	env.Host.Eng.Go("rec", func(p *sim.Proc) { err = s.Record(p, env) })
	env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	beyond := false
	for _, g := range s.WorkingSet().Groups {
		if g.End() > fn.StatePages() {
			beyond = true
		}
	}
	if !beyond {
		t.Fatal("without PV, allocation faults should pull free-pool pages into the capture")
	}
}

func TestPrepareInvokeFlow(t *testing.T) {
	s := New()
	f := newFunc(tinyFn(), s)
	env := f.Env
	var err error
	env.Host.Eng.Go("rec", func(p *sim.Proc) { err = s.Record(p, env) })
	env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	env.Host.Cache.DropCaches()

	var st vmm.InvokeStats
	env.Host.Eng.Go("vm", func(p *sim.Proc) { _, st, _, err = f.ColdStart(p, "vm0", 0, env.InvokeTrace) })
	env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.E2E <= 0 {
		t.Fatal("no E2E measured")
	}
	if len(s.OffsetLoads) != 1 {
		t.Fatalf("OffsetLoads = %v", s.OffsetLoads)
	}
	// After FinishVM nothing remains attached.
	if n := env.Host.Probes.AttachedCount(pagecache.HookAddToPageCacheLRU); n != 0 {
		t.Fatalf("%d programs still attached", n)
	}
}

func TestPrepareBeforeRecordFails(t *testing.T) {
	f := newFunc(tinyFn(), New())
	var err error
	f.Env.Host.Eng.Go("vm", func(p *sim.Proc) { _, _, _, err = f.ColdStart(p, "vm0", 0, f.Env.InvokeTrace) })
	f.Env.Host.Eng.Run()
	if err == nil {
		t.Fatal("PrepareVM before Record accepted")
	}
}

func TestPVOnlyNeedsNoRecord(t *testing.T) {
	s := NewPVOnly()
	f := newFunc(tinyFn(), s)
	var err error
	f.Env.Host.Eng.Go("run", func(p *sim.Proc) {
		if err = s.Record(p, f.Env); err == nil {
			_, _, _, err = f.ColdStart(p, "vm0", 0, f.Env.InvokeTrace)
		}
	})
	f.Env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.WorkingSet() != nil {
		t.Fatal("PV-only configuration captured a working set")
	}
}

func TestCapabilitiesMatchTable1(t *testing.T) {
	c := New().Capabilities()
	if !c.KernelSpace || c.OnDiskWSSerialization || !c.InMemoryWSDedup || !c.StatelessAllocFiltering {
		t.Fatalf("capabilities = %+v", c)
	}
	pv := NewPVOnly().Capabilities()
	if !pv.StatelessAllocFiltering {
		t.Fatal("PV-only loses alloc filtering")
	}
}

func TestEnsureKfuncIdempotent(t *testing.T) {
	h := vmm.NewHost(blockdev.MicronSATA5300())
	EnsureKfunc(h)
	EnsureKfunc(h) // must not panic on duplicate registration
	if _, ok := h.BPF.Helper(KfuncSnapbpfPrefetchID); !ok {
		t.Fatal("kfunc not registered")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
