package check_test

import (
	"fmt"
	"testing"

	"snapbpf/internal/check"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/testbed"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

// TestReleasedSpacesDropShadows runs V sequential checked cold starts
// through testbed and requires the checker to hold a shadow only for
// the sandbox that is alive: a released address space leaves none
// behind, so VMDone's anonymous-page total stays O(live spaces) and a
// long checked run does linear, not quadratic, shadow work.
func TestReleasedSpacesDropShadows(t *testing.T) {
	const V = 6
	fn, err := workload.ByName("json")
	if err != nil {
		t.Fatal(err)
	}
	// Armed by hand, as testbed.New does with Config.Check, so the
	// test can reach the checker.
	h := testbed.New(sim.NewEngine(), testbed.Config{})
	chk := check.New(h.Host, nil)
	f := h.AddFunction(fn, testbed.Scheme{Name: "Linux-NoRA", New: func() prefetch.Prefetcher { return prefetch.NewLinuxNoRA() }},
		fn.Name+".snapmem")
	chk.RegisterFileTags(f.Env.SnapInode, f.Env.Image.PageTags)
	f.Env.AddObserver(chk)

	var live, released []int
	h.Eng.Go("driver", func(p *sim.Proc) {
		for i := 0; i < V; i++ {
			var vm *vmm.MicroVM
			vm, _, _, err = f.ColdStart(p, fmt.Sprintf("vm%d", i), i, f.Env.InvokeTrace)
			if err != nil {
				return
			}
			chk.VMDone(vm)
			live = append(live, check.LiveShadows(chk))
			vm.Shutdown()
			released = append(released, check.LiveShadows(chk))
		}
	})
	h.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != V {
		t.Fatalf("%d cold starts ran, want %d", len(live), V)
	}
	for i := range live {
		if live[i] != 1 || released[i] != 0 {
			t.Fatalf("cold start %d: %d shadows while the sandbox lives, %d after release; want 1 and 0",
				i, live[i], released[i])
		}
	}
	if err := chk.Finish(); err != nil {
		t.Fatalf("checked run reported violations: %v", err)
	}
}
