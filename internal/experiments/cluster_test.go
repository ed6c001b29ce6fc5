package experiments

import (
	"testing"
	"time"

	"snapbpf/internal/cluster"
	"snapbpf/internal/workload"
)

// A 1-host cluster under round-robin with back-to-back arrivals is,
// by construction, the single-host experiment: same stack, same
// shared clock, same FIFO order. The reference Run and the cluster
// run must agree invocation for invocation and digest for digest —
// the metamorphic anchor tying the region model to the validated
// single-host model.
func TestClusterSingleHostEquivalence(t *testing.T) {
	const n = 3
	fn, err := workload.ByName("json")
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(fn, SchemeSnapBPF, Config{N: n, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make([]workload.Arrival, n)
	for i := range arrivals {
		arrivals[i] = workload.Arrival{Tenant: "t", Seq: i, Fn: "json", Class: workload.ClassStandard}
	}
	region, err := cluster.Run(cluster.Config{
		Hosts:    1,
		Scheme:   cluster.Scheme{Name: SchemeSnapBPF.Name, New: SchemeSnapBPF.New},
		Router:   cluster.RouterRoundRobin,
		Arrivals: arrivals,
		Check:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(region.Invocations) != n || region.Cold != n {
		t.Fatalf("cluster ran %d invocations (%d cold), want %d cold", len(region.Invocations), region.Cold, n)
	}
	for i, inv := range region.Invocations {
		if inv.E2E != single.E2E[i] {
			t.Errorf("invocation %d: cluster E2E %v != single-host %v", i, inv.E2E, single.E2E[i])
		}
	}
	if got := region.Digests["json"]; got != single.Digest {
		t.Errorf("digest mismatch: cluster %016x != single-host %016x", got, single.Digest)
	}
}

const goldenClusterCSV = `Config,Scope,N,cold,warm,rej,p50 (s),p95 (s),p99 (s),cold mean (s),cold p99 (s),fair,device MiB
roundrobin/ka=0,all,23,23,0,7,0.103,0.116,0.116,0.093,0.116,0.977,173.2
roundrobin/ka=0,class:batch,6,6,0,1,0.103,0.116,0.116,0.094,0.116,,
roundrobin/ka=0,class:latency,10,10,0,4,0.103,0.116,0.116,0.107,0.116,,
roundrobin/ka=0,class:standard,7,7,0,2,0.078,0.078,0.078,0.073,0.078,,
roundrobin/ka=0,tenant:bursty,6,6,0,1,0.103,0.116,0.116,0.094,0.116,,
roundrobin/ka=0,tenant:interactive,10,10,0,4,0.103,0.116,0.116,0.107,0.116,,
roundrobin/ka=0,tenant:steady,7,7,0,2,0.078,0.078,0.078,0.073,0.078,,
roundrobin/ka=2,all,23,11,12,7,0.080,0.116,0.116,0.089,0.116,0.989,173.2
roundrobin/ka=2,class:batch,6,3,3,1,0.080,0.116,0.116,0.085,0.116,,
roundrobin/ka=2,class:latency,10,3,7,4,0.080,0.116,0.116,0.116,0.116,,
roundrobin/ka=2,class:standard,7,5,2,2,0.078,0.078,0.078,0.076,0.078,,
roundrobin/ka=2,tenant:bursty,6,3,3,1,0.080,0.116,0.116,0.085,0.116,,
roundrobin/ka=2,tenant:interactive,10,3,7,4,0.080,0.116,0.116,0.116,0.116,,
roundrobin/ka=2,tenant:steady,7,5,2,2,0.078,0.078,0.078,0.076,0.078,,
leastloaded/ka=0,all,23,23,0,7,0.103,0.116,0.116,0.091,0.116,0.972,112.7
leastloaded/ka=0,class:batch,6,6,0,1,0.103,0.103,0.103,0.090,0.103,,
leastloaded/ka=0,class:latency,10,10,0,4,0.103,0.116,0.116,0.107,0.116,,
leastloaded/ka=0,class:standard,7,7,0,2,0.067,0.078,0.078,0.070,0.078,,
leastloaded/ka=0,tenant:bursty,6,6,0,1,0.103,0.103,0.103,0.090,0.103,,
leastloaded/ka=0,tenant:interactive,10,10,0,4,0.103,0.116,0.116,0.107,0.116,,
leastloaded/ka=0,tenant:steady,7,7,0,2,0.067,0.078,0.078,0.070,0.078,,
leastloaded/ka=2,all,23,6,17,7,0.080,0.116,0.116,0.087,0.116,0.983,86.6
leastloaded/ka=2,class:batch,6,1,5,1,0.080,0.080,0.080,0.070,0.070,,
leastloaded/ka=2,class:latency,10,2,8,4,0.080,0.116,0.116,0.116,0.116,,
leastloaded/ka=2,class:standard,7,3,4,2,0.055,0.078,0.078,0.074,0.078,,
leastloaded/ka=2,tenant:bursty,6,1,5,1,0.080,0.080,0.080,0.070,0.070,,
leastloaded/ka=2,tenant:interactive,10,2,8,4,0.080,0.116,0.116,0.116,0.116,,
leastloaded/ka=2,tenant:steady,7,3,4,2,0.055,0.078,0.078,0.074,0.078,,
affinity/ka=0,all,23,23,0,7,0.103,0.103,0.116,0.090,0.116,0.972,51.4
affinity/ka=0,class:batch,6,6,0,1,0.103,0.103,0.103,0.090,0.103,,
affinity/ka=0,class:latency,10,10,0,4,0.103,0.116,0.116,0.104,0.116,,
affinity/ka=0,class:standard,7,7,0,2,0.067,0.078,0.078,0.068,0.078,,
affinity/ka=0,tenant:bursty,6,6,0,1,0.103,0.103,0.103,0.090,0.103,,
affinity/ka=0,tenant:interactive,10,10,0,4,0.103,0.116,0.116,0.104,0.116,,
affinity/ka=0,tenant:steady,7,7,0,2,0.067,0.078,0.078,0.068,0.078,,
affinity/ka=2,all,23,5,18,7,0.080,0.103,0.116,0.087,0.116,0.979,51.4
affinity/ka=2,class:batch,6,1,5,1,0.080,0.080,0.080,0.070,0.070,,
affinity/ka=2,class:latency,10,2,8,4,0.080,0.116,0.116,0.109,0.116,,
affinity/ka=2,class:standard,7,2,5,2,0.055,0.078,0.078,0.072,0.078,,
affinity/ka=2,tenant:bursty,6,1,5,1,0.080,0.080,0.080,0.070,0.070,,
affinity/ka=2,tenant:interactive,10,2,8,4,0.080,0.116,0.116,0.109,0.116,,
affinity/ka=2,tenant:steady,7,2,5,2,0.055,0.078,0.078,0.072,0.078,,
`

// TestGoldenCluster pins the full 6-cell cluster table byte for byte,
// serially and on a worker pool.
func TestGoldenCluster(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning is value-level; the non-race suite covers it")
	}
	serial, err := Cluster(Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := serial.CSV(); got != goldenClusterCSV {
		t.Errorf("cluster CSV drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenClusterCSV)
	}
	parallel, err := Cluster(Options{Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := parallel.CSV(); got != serial.CSV() {
		t.Errorf("cluster parallel CSV differs from serial:\n--- parallel ---\n%s--- serial ---\n%s",
			got, serial.CSV())
	}
}

// cheapClusterOptions is a single affinity/ka=2 cell — enough to
// exercise the whole pipeline per metamorphic rerun without paying
// for the full sweep.
func cheapClusterOptions(p ClusterParams) Options {
	p.Routers = []cluster.RouterKind{cluster.RouterAffinity}
	p.Budgets = []int{2}
	return Options{Parallel: 1, Cluster: &p}
}

// Permuting tenant declaration order must leave the CSV byte-identical:
// tenant streams are seeded from tenant names, and all reporting
// iterates sorted keys.
func TestClusterTenantOrderMetamorphic(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning is value-level; the non-race suite covers it")
	}
	base := GoldenClusterSpec()
	perm := GoldenClusterSpec()
	perm.Tenants = []workload.TenantSpec{base.Tenants[2], base.Tenants[0], base.Tenants[1]}
	want, err := Cluster(cheapClusterOptions(ClusterParams{Spec: &base}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Cluster(cheapClusterOptions(ClusterParams{Spec: &perm}))
	if err != nil {
		t.Fatal(err)
	}
	if got.CSV() != want.CSV() {
		t.Errorf("tenant declaration order changed the CSV:\n--- permuted ---\n%s--- base ---\n%s",
			got.CSV(), want.CSV())
	}
}

// Renaming hosts must leave the CSV byte-identical: names are labels,
// and routing/reporting go by host index.
func TestClusterHostNamesMetamorphic(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning is value-level; the non-race suite covers it")
	}
	want, err := Cluster(cheapClusterOptions(ClusterParams{}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Cluster(cheapClusterOptions(ClusterParams{
		HostNames: []string{"zebra", "yak", "xerus", "wombat"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got.CSV() != want.CSV() {
		t.Errorf("host names changed the CSV:\n--- renamed ---\n%s--- base ---\n%s",
			got.CSV(), want.CSV())
	}
}

// Snapshot-affinity routing must beat round-robin on the golden
// workload: colder caches mean slower cold starts and more device
// traffic under round-robin.
func TestClusterAffinityBeatsRoundRobin(t *testing.T) {
	spec := GoldenClusterSpec()
	arrivals, err := spec.Arrivals()
	if err != nil {
		t.Fatal(err)
	}
	run := func(r cluster.RouterKind) *cluster.Result {
		res, err := cluster.Run(cluster.Config{
			Hosts:    4,
			Scheme:   cluster.Scheme{Name: SchemeSnapBPF.Name, New: SchemeSnapBPF.New},
			Router:   r,
			Arrivals: arrivals,
			Check:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rr := run(cluster.RouterRoundRobin)
	aff := run(cluster.RouterAffinity)
	rrCold, affCold := rr.ColdLatency(nil), aff.ColdLatency(nil)
	if affCold.Mean >= rrCold.Mean {
		t.Errorf("affinity cold mean %v not below round-robin %v", affCold.Mean, rrCold.Mean)
	}
	if affCold.P99 > rrCold.P99 {
		t.Errorf("affinity cold p99 %v above round-robin %v", affCold.P99, rrCold.P99)
	}
	if aff.DeviceBytes() >= rr.DeviceBytes() {
		t.Errorf("affinity device traffic %d not below round-robin %d", aff.DeviceBytes(), rr.DeviceBytes())
	}
	if time.Duration(0) == rrCold.Mean {
		t.Error("round-robin cold mean is zero — workload produced no cold starts")
	}
}
