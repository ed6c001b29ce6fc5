// Package testbed is the one place a simulated host is assembled and
// driven through the paper's cold-start lifecycle (§4, after REAP):
// record once, drop caches, then restore → prepare → invoke. The
// single-host harness and the region simulator are thin callers, so
// the harness wiring — which consumer subscribes to which layer, in
// which order (DESIGN.md §16) — is decided here and nowhere else.
// Hosts built on one shared engine each subscribe their own consumers
// to it, so every armed host sees every engine event.
package testbed

import (
	"snapbpf/internal/blockdev"
	"snapbpf/internal/check"
	"snapbpf/internal/faults"
	"snapbpf/internal/obs"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/store"
	"snapbpf/internal/trace"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

// Scheme is a named prefetcher factory. A fresh Prefetcher is built
// per registered function because prefetchers hold per-function
// artifacts.
type Scheme struct {
	Name string
	New  func() prefetch.Prefetcher
}

// Config describes one host's harness.
type Config struct {
	// Device is the host's storage model; the zero value means the
	// paper's Micron 5300 SATA SSD.
	Device blockdev.Params
	// Faults, when non-nil and enabled, arms a fault injector seeded
	// by the plan. The caller validates the plan.
	Faults *faults.Plan
	// Check arms the invariant checker.
	Check bool
	// Obs, when enabled, arms the recorder.
	Obs *obs.Config
	// Store, when non-nil with a non-local tier, stages the host's
	// snapshots behind a chunk cache over Remote.
	Store *store.Setup
	// Remote is the chunk store the cache pulls from; nil builds a
	// private one from Store.Params. A region passes one shared remote.
	Remote *store.Remote
	// CacheLimitPages bounds the page cache from EndRecord on
	// (0 = unlimited).
	CacheLimitPages int64
}

// Host is one simulated machine with its harness attached.
type Host struct {
	*vmm.Host
	Remote *store.Remote    // nil when snapshots are on local SSD
	inj    *faults.Injector // nil on a healthy host
	chk    *check.Checker   // nil unless Config.Check
	rec    *obs.Recorder    // nil unless Config.Obs is enabled
	chunks *store.HostCache // nil when snapshots are on local SSD
	cfg    Config
	fns    []*Func
}

// New assembles a host on eng and arms its harness before any
// simulated event, so the shadow state observes the run from the very
// first page-cache insert. The recorder subscribes to every layer
// before the checker, so each event reaches the recorder first.
func New(eng *sim.Engine, cfg Config) *Host {
	if cfg.Device.Name == "" {
		cfg.Device = blockdev.MicronSATA5300()
	}
	h := &Host{Host: vmm.NewHostOnEngine(eng, cfg.Device), cfg: cfg}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		h.inj = faults.NewInjector(*cfg.Faults)
	}
	h.Dev.SetFaults(h.inj)
	if cfg.Obs.Enabled() {
		h.rec = obs.Attach(h.Host, *cfg.Obs)
	}
	if cfg.Check {
		h.chk = check.New(h.Host, h.inj)
	}
	if sc := cfg.Store; sc != nil && sc.Tier != store.TierLocal {
		h.Remote = cfg.Remote
		if h.Remote == nil {
			h.Remote = store.NewRemote(sc.Params)
		}
		h.chunks = store.NewHostCache(eng, h.Remote, h.inj)
		// Typed nils would be non-nil Observers: subscribe only what
		// is armed.
		if h.rec != nil {
			h.chunks.AddObserver(h.rec)
		}
		if h.chk != nil {
			h.chunks.AddObserver(h.chk)
			h.chk.AttachStore(h.chunks)
		}
	}
	return h
}

// Func is one function's snapshot and scheme instance on a host.
type Func struct {
	PF   prefetch.Prefetcher
	Env  *prefetch.Env
	Bind *store.Binding // nil when the snapshot is on local SSD
	h    *Host
}

// AddFunction instantiates scheme for fn, builds the snapshot image
// the scheme's guest needs and registers it on the host as snapName.
// On a remote tier the image's manifest is bound to the chunk cache,
// so device reads of the snapshot are staged behind it and the
// scheme's captured offsets feed the chunk-priority plan.
func (h *Host) AddFunction(fn workload.Function, scheme Scheme, snapName string) *Func {
	pf := scheme.New()
	img := vmm.BuildImage(fn, pf.RestoreConfig(0).ZeroOnFree)
	inode := h.RegisterSnapshot(snapName, img)
	if h.chk != nil {
		h.chk.RegisterFileTags(inode, img.PageTags)
	}
	env := &prefetch.Env{
		Host:        h.Host,
		Fn:          fn,
		Image:       img,
		SnapInode:   inode,
		RecordTrace: fn.GenTrace(),
		InvokeTrace: fn.GenTrace(),
		Faults:      h.inj,
	}
	if h.rec != nil {
		env.AddObserver(h.rec)
	}
	if h.chk != nil {
		env.AddObserver(h.chk)
	}
	f := &Func{PF: pf, Env: env, h: h}
	if h.chunks != nil {
		sc := h.cfg.Store
		man := store.BuildManifest(fn.Name, img.PageTags, h.Remote.Params().ChunkPages)
		if sc.SabotageChunk > 0 && sc.SabotageChunk <= len(man.Chunks) {
			// Test knob: forge one manifest hash (stale manifest /
			// corrupt chunk); the checker must flag the fetch.
			man.Chunks[sc.SabotageChunk-1].ID ^= 0xdeadbeef
		}
		if sc.PermuteChunks != 0 {
			store.PermuteChunks(man, sc.PermuteChunks)
		}
		f.Bind = h.chunks.Bind(man, sc.Policy, img.PageTags)
		inode.SetStager(f.Bind)
		env.ChunkPlan = f.Bind.Plan
	}
	h.fns = append(h.fns, f)
	return f
}

// EndRecord turns the recorded host into the cold starting point of
// the measured phase: the page cache is dropped, device counters
// reset, and the invocation-phase cache limit applied. A cold chunk
// cache is emptied, as on a host that never ran these functions; for
// a warm one a proc named preload pulls every bound snapshot through
// the normal fetch path. Drain the engine before the first restore.
func (h *Host) EndRecord(preload string) {
	h.Cache.DropCaches()
	h.Dev.ResetStats()
	h.Cache.SetMemLimit(h.cfg.CacheLimitPages)
	if h.chunks == nil {
		return
	}
	switch h.cfg.Store.Tier {
	case store.TierCold:
		h.chunks.Drop()
	case store.TierWarm:
		h.Eng.Go(preload, func(p *sim.Proc) {
			for _, f := range h.fns {
				f.Bind.Preload(p)
			}
		})
	}
}

// ColdStart restores a sandbox named name from f's snapshot with
// allocator salt salt, lets the scheme prepare it, and replays tr.
// With the checker armed it returns the guest-memory digest, taken
// before any teardown (the shadow page table is consumed with the
// address space). The caller owns the returned sandbox.
func (f *Func) ColdStart(p *sim.Proc, name string, salt int, tr *trace.Trace) (*vmm.MicroVM, vmm.InvokeStats, uint64, error) {
	env := f.Env
	vm, err := f.h.Restore(p, name, env.Fn, env.Image, env.SnapInode, f.PF.RestoreConfig(salt))
	if err != nil {
		return nil, vmm.InvokeStats{}, 0, err
	}
	if f.Bind != nil {
		// Full-download policy blocks restores until the whole
		// snapshot is local; other policies return at once. The wait
		// lands in E2E, like the real registry pull.
		f.Bind.BeginRestore(p)
	}
	if err := f.PF.PrepareVM(p, env, vm); err != nil {
		return nil, vmm.InvokeStats{}, 0, err
	}
	vm.MarkPrepared(p)
	st, err := vm.Invoke(p, tr)
	if err != nil {
		return nil, vmm.InvokeStats{}, 0, err
	}
	f.PF.FinishVM(env, vm)
	var digest uint64
	if f.h.chk != nil {
		digest = f.h.chk.VMDone(vm)
	}
	return vm, st, digest, nil
}

// Report is what a host's harness observed, frozen once the engine
// has drained.
type Report struct {
	Obs         *obs.Report       // nil unless the recorder was armed
	CheckCounts *check.Counts     // nil unless the checker was armed
	Faults      faults.Report     // zero on a healthy host
	Store       *store.CacheStats // nil on local SSD
}

// Report freezes the harness into a Report.
func (h *Host) Report() Report {
	r := Report{Faults: h.inj.Report()}
	if h.rec != nil {
		r.Obs = h.rec.Finish()
	}
	if h.chk != nil {
		cc := h.chk.Counts()
		r.CheckCounts = &cc
	}
	if h.chunks != nil {
		cs := h.chunks.Stats()
		r.Store = &cs
	}
	return r
}

// Verify runs the checker's end-of-run reconciliation; nil when the
// checker is not armed.
func (h *Host) Verify() error {
	if h.chk == nil {
		return nil
	}
	return h.chk.Finish()
}
