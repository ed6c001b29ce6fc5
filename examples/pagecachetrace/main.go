// Pagecachetrace: program the simulated kernel's page cache with your
// own eBPF — the programmable-page-cache capability SnapBPF is built
// on (and that FetchBPF/P2Cache explore for other policies). This
// example assembles a small histogram program, verifies and loads it,
// attaches it to the add_to_page_cache_lru kprobe, runs a function
// invocation, and reads the per-inode insertion counts back from the
// map — a minimal "cachestat" tool.
//
//	go run ./examples/pagecachetrace
package main

import (
	"fmt"
	"log"

	"snapbpf"
	"snapbpf/internal/units"
)

func main() {
	tb := snapbpf.NewTestbed(snapbpf.MicronSATA5300())
	host := tb.Host

	// Map: inode id -> pages inserted.
	counts, err := snapbpf.NewBPFMap(snapbpf.MapTypeHash, "inode_counts", 1024)
	if err != nil {
		log.Fatal(err)
	}
	fd := snapbpf.RegisterBPFMap(host, counts)

	// Program (context: R1 = inode id, R2 = page offset):
	//
	//	counts[inode]++
	//
	// written against the same verifier and interpreter that run
	// SnapBPF's capture and prefetch programs.
	b := snapbpf.NewBPFBuilder()
	b.StxDW(snapbpf.RFP, -8, snapbpf.R1) // key = inode
	b.Mov64Imm(snapbpf.R1, fd)
	b.Mov64Reg(snapbpf.R2, snapbpf.RFP).Add64Imm(snapbpf.R2, -8)
	b.Mov64Reg(snapbpf.R3, snapbpf.RFP).Add64Imm(snapbpf.R3, -16)
	b.Call(snapbpf.HelperMapLookupElem)
	b.JmpImm(snapbpf.OpJeq, snapbpf.R0, 1, "found")
	b.StDWImm(snapbpf.RFP, -16, 0) // first insertion for this inode
	b.Label("found")
	b.LdxDW(snapbpf.R6, snapbpf.RFP, -16)
	b.Add64Imm(snapbpf.R6, 1)
	b.StxDW(snapbpf.RFP, -16, snapbpf.R6)
	b.Mov64Imm(snapbpf.R1, fd)
	b.Mov64Reg(snapbpf.R2, snapbpf.RFP).Add64Imm(snapbpf.R2, -8)
	b.Mov64Reg(snapbpf.R3, snapbpf.RFP).Add64Imm(snapbpf.R3, -16)
	b.Call(snapbpf.HelperMapUpdateElem)
	b.Mov64Imm(snapbpf.R0, 0)
	b.Exit()

	insns, err := b.Program()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("program assembly:")
	fmt.Println(snapbpf.DisassembleBPF(insns))

	prog, err := snapbpf.LoadBPF(host, "inode-histogram", insns)
	if err != nil {
		log.Fatal(err) // the verifier rejected it
	}
	detach, err := snapbpf.AttachKprobe(host, snapbpf.HookAddToPageCacheLRU, prog)
	if err != nil {
		log.Fatal(err)
	}

	// Drive a real workload under Linux-RA so the page cache fills.
	fn, err := snapbpf.FunctionByName("pyaes")
	if err != nil {
		log.Fatal(err)
	}
	f := tb.AddFunction(fn, snapbpf.SchemeLinuxRA, fn.Name+".snapmem")
	var runErr error
	host.Eng.Go("vm", func(p *snapbpf.Proc) {
		_, _, _, runErr = f.ColdStart(p, "vm0", 0, f.Env.InvokeTrace)
	})
	host.Eng.Run()
	if runErr != nil {
		log.Fatal(runErr)
	}
	if err := detach(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("program ran %d times; page-cache insertions by inode:\n", prog.Runs())
	for _, e := range counts.Entries() {
		fmt.Printf("  inode %d: %d pages (%.1f MiB)\n",
			e.Key, e.Value, units.PagesToMiB(int64(e.Value)))
	}
}
