package ebpf

import (
	"fmt"
	"io"

	"snapbpf/internal/ebpf/absint"
)

// Bridge to the abstract interpreter. absint is a leaf package with a
// mirrored instruction encoding (pinned by TestAbsintConstsMatch), so
// converting a program is a field-for-field copy.

// absInsns converts a program to the analyzer's instruction type.
func absInsns(insns []Instruction) []absint.Insn {
	out := make([]absint.Insn, len(insns))
	for i, in := range insns {
		out[i] = absint.Insn{
			Op:  in.Op,
			Dst: uint8(in.Dst),
			Src: uint8(in.Src),
			Off: in.Off,
			Imm: in.Imm,
		}
	}
	return out
}

// absintOpts adapts a helper resolver into the analyzer's environment
// callbacks, mirroring exactly what the structural verifier consults.
func absintOpts(res helperResolver) absint.Opts {
	var opts absint.Opts
	if res != nil {
		opts.KnownHelper = func(id int32) bool {
			_, ok := res.Helper(id)
			return ok
		}
	}
	if maps, ok := res.(mapResolver); ok && maps != nil {
		opts.ValidMapFD = func(fd int64) bool {
			if fd < 0 || fd > 1<<31-1 {
				return false
			}
			_, ok := maps.MapByFD(int32(fd))
			return ok
		}
		// Map-helper argument discipline is only enforced when maps
		// can be resolved at all, matching the structural pass.
		opts.MapHelper = isMapHelper
	}
	return opts
}

// analyzeProgram runs the abstract interpreter over a raw program.
func analyzeProgram(insns []Instruction, res helperResolver) *absint.Result {
	return absint.Analyze(absInsns(insns), absintOpts(res))
}

// WriteAbsintReport renders an analysis result as the human-readable
// static-analysis report shared by `snapbpf-bench -absint-report` and
// `snapbpf-ebpf-check`: verdict, worst-case cost, then every finding
// with its disassembled instruction. It returns the number of
// unproven accesses (the contract `snapbpf-ebpf-check` enforces).
func WriteAbsintReport(w io.Writer, name string, insns []Instruction, r *absint.Result) int {
	verdict := "OK"
	if !r.OK {
		verdict = "REJECTED"
	}
	fmt.Fprintf(w, "program %s: %s, %d insns", name, verdict, len(insns))
	if r.WorstCase >= 0 {
		fmt.Fprintf(w, ", worst case %d insns", r.WorstCase)
	} else {
		fmt.Fprintf(w, ", worst case unbounded (dynamic budget applies)")
	}
	fmt.Fprintln(w)
	if r.Err != nil {
		fmt.Fprintf(w, "  error at pc %d: %s\n    state: %s\n", r.Err.PC, r.Err.Msg, r.Err.State)
	}
	unproven := 0
	for _, f := range r.Findings {
		if f.Kind == "unproven-access" {
			unproven++
		}
		insn := ""
		if f.PC >= 0 && f.PC < len(insns) {
			insn = fmt.Sprintf("  [%s]", insns[f.PC])
		}
		fmt.Fprintf(w, "  %-17s pc %3d: %s%s\n", f.Kind, f.PC, f.Msg, insn)
	}
	return unproven
}

// Analyze runs the abstract interpreter over insns in this VM's
// helper/map environment and returns the full result: reachability,
// per-branch feasibility, findings, and the static worst-case
// instruction bound. It does not require the program to pass Verify.
func (vm *VM) Analyze(insns []Instruction) *absint.Result {
	return analyzeProgram(insns, vm)
}
