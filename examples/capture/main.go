// Capture: record the working set of a custom (user-defined) function
// with SnapBPF's eBPF capture program and inspect the artifact — the
// grouped, access-ordered page offsets that drive prefetching. Unlike
// the userspace baselines, nothing but these offsets is written to
// disk (§3.1 of the paper).
//
//	go run ./examples/capture
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"snapbpf"
	"snapbpf/internal/units"
)

func main() {
	// A custom function model: 128MiB sandbox, 12MiB working set
	// scattered across 20 regions, 8MiB of ephemeral allocations.
	fn := snapbpf.Function{
		Name:      "my-function",
		MemMiB:    128,
		StateMiB:  64,
		WSMiB:     12,
		WSRegions: 20,
		AllocMiB:  8,
		ComputeMs: 30,
		WriteFrac: 0.2,
		Seed:      2025,
	}
	if err := fn.Validate(); err != nil {
		log.Fatal(err)
	}

	// Build the snapshot and place it on a fresh simulated host.
	tb := snapbpf.NewTestbed(snapbpf.MicronSATA5300())
	f := tb.AddFunction(fn, snapbpf.SchemeSnapBPF, fn.Name+".snapmem")

	// Record phase: the capture eBPF program hooks
	// add_to_page_cache_lru and logs every snapshot page offset the
	// invocation faults in, with readahead disabled.
	var recErr error
	tb.Eng.Go("record", func(p *snapbpf.Proc) { recErr = f.PF.Record(p, f.Env) })
	tb.Eng.Run()
	if recErr != nil {
		log.Fatal(recErr)
	}

	ws := f.PF.(*snapbpf.SnapBPF).WorkingSet()
	fmt.Printf("captured working set of %q:\n", fn.Name)
	fmt.Printf("  %d pages (%.1f MiB) in %d contiguous groups\n",
		ws.TotalPages(), units.PagesToMiB(ws.TotalPages()), len(ws.Groups))
	fmt.Println("\nfirst groups in prefetch (earliest-access) order:")
	for i, g := range ws.Groups {
		if i == 8 {
			fmt.Printf("  ... %d more\n", len(ws.Groups)-8)
			break
		}
		fmt.Printf("  group %2d: pages [%6d, %6d)  (%d pages)\n", i, g.Start, g.End(), g.NPages)
	}

	// Persist the artifacts: the snapshot image and the offsets-only
	// working set (compare the sizes!).
	dir, err := os.MkdirTemp("", "snapbpf-capture-*")
	if err != nil {
		log.Fatal(err)
	}
	imgPath := filepath.Join(dir, fn.Name+".snapmem")
	wsPath := filepath.Join(dir, fn.Name+".snapbpf-ws")
	if err := f.Env.Image.SaveFile(imgPath); err != nil {
		log.Fatal(err)
	}
	if err := ws.SaveFile(wsPath); err != nil {
		log.Fatal(err)
	}
	for _, p := range []string{imgPath, wsPath} {
		st, err := os.Stat(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s (%d bytes)", p, st.Size())
	}
	fmt.Println("\n\ninspect them with: go run ./cmd/wsinspect <path>")
}
