package core

import (
	"testing"

	"snapbpf/internal/ebpf"
)

// backwardJumps returns the pc of every jump whose target is at or
// before the jump itself.
func backwardJumps(insns []ebpf.Instruction) []int {
	var out []int
	for pc, in := range insns {
		if c := in.Class(); c != ebpf.ClassJMP && c != ebpf.ClassJMP32 {
			continue
		}
		if op := in.Op & 0xf0; op == ebpf.OpCall || op == ebpf.OpExit {
			continue
		}
		if pc+1+int(in.Off) <= pc {
			out = append(out, pc)
		}
	}
	return out
}

// builtin returns the built-in program named name.
func builtin(t *testing.T, name string) BuiltinProgram {
	t.Helper()
	for _, bp := range BuiltinPrograms() {
		if bp.Name == name {
			return bp
		}
	}
	t.Fatalf("no built-in program %q", name)
	return BuiltinProgram{}
}

// TestBuiltinProgramsLoad: every built-in program passes Verify in its
// own load environment.
func TestBuiltinProgramsLoad(t *testing.T) {
	progs := BuiltinPrograms()
	if len(progs) != 2 {
		t.Fatalf("%d built-in programs, want 2", len(progs))
	}
	for _, bp := range progs {
		if _, err := bp.VM.Load(bp.Name, bp.Insns); err != nil {
			t.Errorf("%s rejected: %v\n%s", bp.Name, err, ebpf.Disassemble(bp.Insns))
		}
	}
}

// TestCaptureProgramAcyclic: the capture program runs on every page
// cache insertion, so it has no backward jump and one firing executes
// at most len(insns) instructions. Verify accepts loops, so this shape
// is pinned here; a capture program with an appended back edge still
// loads but fails the check.
func TestCaptureProgramAcyclic(t *testing.T) {
	bp := builtin(t, "snapbpf-capture")
	if back := backwardJumps(bp.Insns); len(back) != 0 {
		t.Fatalf("capture program has backward jumps at %v\n%s", back, ebpf.Disassemble(bp.Insns))
	}

	looped := append(append([]ebpf.Instruction(nil), bp.Insns...),
		ebpf.Instruction{Op: ebpf.ClassJMP | ebpf.OpJa, Off: int16(-len(bp.Insns) - 1)})
	if _, err := bp.VM.Load("looped", looped); err != nil {
		t.Fatalf("looped capture program rejected: %v", err)
	}
	if back := backwardJumps(looped); len(back) != 1 || back[0] != len(bp.Insns) {
		t.Fatalf("appended back edge not found: %v", back)
	}
}

// TestPrefetchProgramOneLoop: the prefetch program's only backward
// jump closes its group loop, whose head compares the cursor (r9)
// with the batch end (r8) and exits past the back edge.
func TestPrefetchProgramOneLoop(t *testing.T) {
	bp := builtin(t, "snapbpf-prefetch")
	back := backwardJumps(bp.Insns)
	if len(back) != 1 {
		t.Fatalf("prefetch program has backward jumps at %v, want exactly one\n%s",
			back, ebpf.Disassemble(bp.Insns))
	}
	pc := back[0]
	if edge := bp.Insns[pc]; edge.Op != ebpf.ClassJMP|ebpf.OpJa {
		t.Fatalf("back edge at pc %d is %s, want ja", pc, edge)
	}
	headPC := pc + 1 + int(bp.Insns[pc].Off)
	head := bp.Insns[headPC]
	if head.Op != ebpf.ClassJMP|ebpf.OpJge|ebpf.SrcX || head.Dst != ebpf.R9 || head.Src != ebpf.R8 {
		t.Fatalf("loop head at pc %d is %s, want jge r9, r8", headPC, head)
	}
	if exit := headPC + 1 + int(head.Off); exit <= pc {
		t.Fatalf("loop head exits to pc %d, inside the loop ending at %d", exit, pc)
	}
}
