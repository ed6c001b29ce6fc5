// Differential soundness fuzzing for the abstract interpreter. The
// fuzz target lives in an external test package so it can drive the
// full ebpf VM (which imports absint) against the analysis results:
// any divergence between what the analysis claims (dead edges, cost
// bounds, accepted programs) and what the interpreter actually does is
// a crash, not a flaky finding.
package absint_test

import (
	"strings"
	"testing"

	"snapbpf/internal/ebpf"
	"snapbpf/internal/ebpf/absint"
)

// FuzzAbsint decodes arbitrary bytes into an instruction stream and
// cross-checks two soundness claims of the abstract interpreter:
//
//  1. Analyze never panics, on any input.
//  2. If the analysis marks a branch edge dead, a concrete execution
//     (observed via InterpBranches) never takes that edge, and if it
//     computes a finite worst-case cost within the budget, no run
//     aborts on the instruction budget.
func FuzzAbsint(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		if data, err := ebpf.MarshalInstructions(seed); err == nil {
			f.Add(data)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		insns, err := ebpf.UnmarshalInstructions(data)
		if err != nil {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %d-instruction stream: %v\n%s",
					len(insns), r, ebpf.Disassemble(insns))
			}
		}()

		vm := ebpf.NewVM()
		vm.RegisterMap(ebpf.MustNewMap(ebpf.MapTypeHash, "fuzz", 64))
		r := vm.Analyze(insns)
		if r == nil || !r.OK {
			return
		}

		// Interpreter run, observing every conditional edge taken.
		// Analysis acceptance implies Verify acceptance (the verifier
		// falls back to the same analysis), so Load must succeed.
		p, err := vm.Load("absint-fuzz", insns)
		if err != nil {
			t.Fatalf("analysis accepted but Load failed: %v\n%s",
				err, ebpf.Disassemble(insns))
		}
		var deadTaken []string
		hook := func(pc int, taken bool) {
			b, ok := r.Branches[pc]
			if !ok {
				return
			}
			if (taken && b.TakenDead) || (!taken && b.FallDead) {
				deadTaken = append(deadTaken,
					edgeName(pc, taken))
			}
		}
		_, runErr := p.InterpBranches(nil, hook, 1, 2)
		if len(deadTaken) > 0 {
			t.Fatalf("execution took statically dead edges %v\n%s",
				deadTaken, ebpf.Disassemble(insns))
		}

		// A finite worst case within the budget means no run may die
		// on the dynamic budget check.
		if r.WorstCase >= 0 && r.WorstCase <= absint.InsnBudget &&
			runErr != nil && strings.Contains(runErr.Error(), "instruction budget") {
			t.Fatalf("worst case %d within budget but run aborted: %v\n%s",
				r.WorstCase, runErr, ebpf.Disassemble(insns))
		}
	})
}

func edgeName(pc int, taken bool) string {
	edge := "fall"
	if taken {
		edge = "taken"
	}
	return edge + "@" + itoa(pc)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
