package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"snapbpf/internal/experiments"
	"snapbpf/internal/store"
	"snapbpf/internal/workload"
)

// cell is one operation of a workload: one experiments.Run call.
type cell struct {
	Fn     workload.Function
	Scheme experiments.Scheme
	N      int
	Tier   store.Tier
	Policy store.Policy
	Check  bool
}

// config is the experiments.Config the cell runs under; the passes
// differ only in what they add on top of it (profile labels, obs).
func (c cell) config() experiments.Config {
	cfg := experiments.Config{N: c.N, Check: c.Check}
	if c.Tier != store.TierLocal {
		cfg.Store = &store.Setup{Tier: c.Tier, Policy: c.Policy}
	}
	return cfg
}

// policyName is the fetch policy as written in span names; the local
// tier bypasses the store, so it has none.
func (c cell) policyName() string {
	if c.Tier == store.TierLocal {
		return "none"
	}
	return c.Policy.String()
}

// spanName is workload/fn/scheme/N/tier/policy.
func (c cell) spanName(wl string) string {
	return fmt.Sprintf("%s/%s/%s/%d/%s/%s", wl, c.Fn.Name, c.Scheme.Name, c.N, c.Tier, c.policyName())
}

// oracleKey groups the cells whose guest-memory digests must agree:
// same function, tier and policy, any scheme.
func (c cell) oracleKey() string {
	return c.Fn.Name + "/" + c.Tier.String() + "/" + c.policyName()
}

// spec is a cell before seeding: the function is named, not built.
type spec struct {
	fn     string
	scheme experiments.Scheme
	n      int
	tier   store.Tier
	policy store.Policy
	check  bool
}

// workloadDef is a named, fixed list of cells plus the untimed cell
// that warms the process up before the first timed one. README.md
// gives why each workload exists.
type workloadDef struct {
	name   string
	cells  []spec
	warmup spec
}

var (
	snapBPF = experiments.SchemeSnapBPF
	faaSnap = experiments.SchemeFaaSnap
	linuxRA = experiments.SchemeLinuxRA
	reap    = experiments.SchemeREAP
)

// workloads are the benchmark's workloads. Each pass over a list takes
// 6-9 s on 2 CPUs at the seed commit, so a run repeats every cell
// several times and reports per-cell medians: single cell times
// spread by about 7% on such a machine, medians of four by far less.
var workloads = []workloadDef{
	{
		name: "alloc-churn",
		cells: []spec{
			{fn: "image", scheme: snapBPF, n: 1},
			{fn: "dd", scheme: faaSnap, n: 1}, // zero-on-free re-walks every freed allocation
		},
		warmup: spec{fn: "json", scheme: snapBPF, n: 1},
	},
	{
		name: "large-ws",
		cells: []spec{
			{fn: "bfs", scheme: linuxRA, n: 1},
			{fn: "bfs", scheme: reap, n: 1},
			{fn: "bfs", scheme: snapBPF, n: 1},
			{fn: "bert", scheme: linuxRA, n: 1},
		},
		warmup: spec{fn: "json", scheme: linuxRA, n: 1},
	},
	{
		name:   "cold-checked",
		cells:  coldChecked(),
		warmup: spec{fn: "json", scheme: snapBPF, n: 10, tier: store.TierCold, policy: store.PolicyWSLazy, check: true},
	},
}

// coldChecked is the cold-checked cell list, SnapBPF before Linux-RA
// so the differential oracle pairs neighbours. chameleon, the longest
// cell and the one where the checker costs most, runs under wslazy
// only.
func coldChecked() []spec {
	var out []spec
	add := func(fn string, pol store.Policy) {
		for _, sc := range []experiments.Scheme{snapBPF, linuxRA} {
			out = append(out, spec{fn: fn, scheme: sc, n: 10, tier: store.TierCold, policy: pol, check: true})
		}
	}
	for _, fn := range []string{"html", "pyaes", "float"} {
		add(fn, store.PolicyWSLazy)
		add(fn, store.PolicyDemand)
	}
	add("chameleon", store.PolicyWSLazy)
	return out
}

// workloadByName returns the named workload.
func workloadByName(name string) (workloadDef, error) {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	sort.Strings(names)
	return workloadDef{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// build seeds the workload's cells and warm-up cell.
func (w workloadDef) build(seed int64) (cells []cell, warmup cell, err error) {
	for _, s := range w.cells {
		c, err := s.build(seed)
		if err != nil {
			return nil, cell{}, err
		}
		cells = append(cells, c)
	}
	warmup, err = w.warmup.build(seed)
	return cells, warmup, err
}

func (s spec) build(seed int64) (cell, error) {
	fn, err := seededFunction(s.fn, seed)
	if err != nil {
		return cell{}, err
	}
	return cell{Fn: fn, Scheme: s.scheme, N: s.n, Tier: s.tier, Policy: s.policy, Check: s.check}, nil
}

// seededFunction is a copy of the suite function with its trace seed
// derived from the workload seed and the function name. Sizes, compute
// time and write fraction stay as in the suite.
func seededFunction(name string, seed int64) (workload.Function, error) {
	fn, err := workload.ByName(name)
	if err != nil {
		return workload.Function{}, err
	}
	fn.Seed = deriveSeed(seed, name)
	return fn, fn.Validate()
}

// deriveSeed mixes the workload seed with the function name
// (FNV-1a, then the splitmix64 finalizer) into a non-negative seed.
func deriveSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte(strconv.FormatInt(seed, 10)))
	x := h.Sum64() + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}
