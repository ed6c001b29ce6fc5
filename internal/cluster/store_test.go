package cluster_test

import (
	"strings"
	"testing"
	"time"

	"snapbpf/internal/cluster"
	"snapbpf/internal/store"
)

// TestClusterStoreColdDedup runs a two-host region against a cold
// shared remote and checks the distribution-tier accounting: every
// host fetches through its own chunk cache, functions sharing
// base-image chunks dedup within a host, and the shared remote's
// duplicate-request counters expose the cross-host dedup gap (the
// same chunk pulled once per host).
func TestClusterStoreColdDedup(t *testing.T) {
	res, err := cluster.Run(cluster.Config{
		Hosts:    2,
		Scheme:   snapBPF(),
		Arrivals: mix(4, 50*time.Millisecond, "json", "image"),
		Check:    true,
		Store:    &store.Setup{Tier: store.TierCold, Policy: store.PolicyWSLazy},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StoreRemote == nil {
		t.Fatal("no remote stats despite a cold store setup")
	}
	var fetches, fetchBytes, dedup int64
	for _, hs := range res.Hosts {
		if hs.Store == nil {
			t.Fatalf("host %s has no store stats", hs.Name)
		}
		if hs.Store.Fetches == 0 {
			t.Errorf("host %s never fetched from the remote", hs.Name)
		}
		if hs.Store.DedupHits == 0 {
			t.Errorf("host %s saw no dedup hits; json and image share base chunks", hs.Name)
		}
		fetches += hs.Store.Fetches
		fetchBytes += hs.Store.FetchBytes
		dedup += hs.Store.DedupHits
	}
	rs := res.StoreRemote
	if rs.Requests != fetches {
		t.Errorf("remote served %d requests, hosts fetched %d", rs.Requests, fetches)
	}
	if rs.Bytes != fetchBytes {
		t.Errorf("remote moved %d bytes, hosts fetched %d", rs.Bytes, fetchBytes)
	}
	if rs.UniqueChunks == 0 {
		t.Error("remote saw no unique chunks")
	}
	// Both hosts record both functions, so every chunk host1 pulls was
	// already pulled by host0: the dup counters must be exactly the
	// second host's traffic.
	if rs.DupRequests == 0 {
		t.Error("two hosts pulling the same snapshots produced no duplicate remote requests")
	}
	if rs.Requests != rs.UniqueChunks+rs.DupRequests {
		t.Errorf("remote accounting: %d requests != %d unique + %d dup",
			rs.Requests, rs.UniqueChunks, rs.DupRequests)
	}
	if dedup == 0 {
		t.Error("region saw no within-host dedup hits")
	}
}

// TestClusterStoreWarmPreload checks the warm tier: every host's chunk
// cache is preloaded before dispatch, so the invocation phase never
// touches the remote and E2E matches the local-SSD run.
func TestClusterStoreWarmPreload(t *testing.T) {
	run := func(setup *store.Setup) *cluster.Result {
		t.Helper()
		res, err := cluster.Run(cluster.Config{
			Hosts:    2,
			Scheme:   snapBPF(),
			Arrivals: burst(4, "json"),
			Check:    true,
			Store:    setup,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	local := run(nil)
	warm := run(&store.Setup{Tier: store.TierWarm, Policy: store.PolicyDemand})
	for _, hs := range warm.Hosts {
		if hs.Store == nil || hs.Store.Fetches == 0 {
			t.Fatalf("host %s never preloaded", hs.Name)
		}
	}
	a, b := local.Latency(nil), warm.Latency(nil)
	if a.Mean != b.Mean {
		t.Errorf("warm-tier mean E2E %v differs from local SSD %v; preloaded chunks must be free",
			b.Mean, a.Mean)
	}
}

// TestClusterStoreSabotageCaught mirrors the single-host sabotage
// test: a region honours the store setup's test knobs, so a forged
// manifest hash must be caught by a host's checker the moment the
// chunk is fetched, and the same run without the checker completes.
func TestClusterStoreSabotageCaught(t *testing.T) {
	// Full download touches every chunk, so the forged one is
	// guaranteed to be fetched and verified.
	setup := &store.Setup{Tier: store.TierCold, Policy: store.PolicyFull, SabotageChunk: 1}
	cfg := cluster.Config{
		Hosts:    2,
		Scheme:   snapBPF(),
		Arrivals: burst(2, "json"),
		Check:    true,
		Store:    setup,
	}
	_, err := cluster.Run(cfg)
	if err == nil {
		t.Fatal("corrupted chunk with a stale manifest hash sailed through the region's checkers")
	}
	if !strings.Contains(err.Error(), "store-chunk-digest") {
		t.Fatalf("expected a store-chunk-digest violation, got: %v", err)
	}
	cfg.Check = false
	if _, err := cluster.Run(cfg); err != nil {
		t.Fatalf("uncheckered sabotage run failed: %v", err)
	}
}
