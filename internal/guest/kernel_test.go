package guest

import (
	"math/rand"
	"slices"
	"testing"
)

func testCfg(pv bool) Config {
	return Config{NrPages: 1024, StatePages: 256, PVMarking: pv}
}

func TestKernelAllocFreeRoundTrip(t *testing.T) {
	k, err := NewKernel(testCfg(false), 0)
	if err != nil {
		t.Fatal(err)
	}
	pfns, err := k.Alloc(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(pfns) != 100 {
		t.Fatalf("got %d pfns", len(pfns))
	}
	for _, p := range pfns {
		if p < 256 || p >= 1024 {
			t.Fatalf("pfn %d outside free pool", p)
		}
	}
	if k.AllocatedPages() != 100 {
		t.Fatalf("AllocatedPages = %d", k.AllocatedPages())
	}
	if err := k.Free(1); err != nil {
		t.Fatal(err)
	}
	if k.FreedPages() != 100 {
		t.Fatalf("FreedPages = %d", k.FreedPages())
	}
	if k.Buddy().NrFree() != 1024-256 {
		t.Fatalf("NrFree = %d", k.Buddy().NrFree())
	}
}

func TestKernelDuplicateHandle(t *testing.T) {
	k, _ := NewKernel(testCfg(false), 0)
	if _, err := k.Alloc(1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Alloc(1, 4); err == nil {
		t.Fatal("duplicate handle accepted")
	}
}

func TestKernelFreeUnknownHandle(t *testing.T) {
	k, _ := NewKernel(testCfg(false), 0)
	if err := k.Free(7); err == nil {
		t.Fatal("free of unknown handle accepted")
	}
}

func TestKernelOOMRollsBack(t *testing.T) {
	k, _ := NewKernel(Config{NrPages: 64, StatePages: 32}, 0)
	if _, err := k.Alloc(1, 1000); err == nil {
		t.Fatal("oversized alloc accepted")
	}
	// Roll-back: everything free again.
	if k.Buddy().NrFree() != 32 {
		t.Fatalf("NrFree = %d after failed alloc", k.Buddy().NrFree())
	}
}

func TestPVMarkingFirstTouchMirrored(t *testing.T) {
	k, _ := NewKernel(testCfg(true), 0)
	pfns, _ := k.Alloc(1, 2)
	g0 := k.TouchPFN(pfns[0])
	if !IsMirror(g0) {
		t.Fatalf("first touch not mirrored: %#x", g0)
	}
	if Unmirror(g0) != uint64(pfns[0]) {
		t.Fatalf("unmirror(%#x) = %d, want %d", g0, Unmirror(g0), pfns[0])
	}
	// Second touch uses the original PFN.
	if g := k.TouchPFN(pfns[0]); IsMirror(g) {
		t.Fatal("second touch still mirrored")
	}
}

func TestPVMarkingDisabled(t *testing.T) {
	k, _ := NewKernel(testCfg(false), 0)
	pfns, _ := k.Alloc(1, 1)
	if g := k.TouchPFN(pfns[0]); IsMirror(g) {
		t.Fatal("mirrored touch with PV disabled")
	}
}

func TestPVMarkingOnlyFreshFrames(t *testing.T) {
	k, _ := NewKernel(testCfg(true), 0)
	// State pages were never allocated since restore: plain faults.
	if g := k.TouchPFN(5); IsMirror(g) {
		t.Fatal("snapshot-state page mirrored")
	}
}

func TestPVMarkingResetAcrossRealloc(t *testing.T) {
	k, _ := NewKernel(testCfg(true), 0)
	pfns, _ := k.Alloc(1, 4)
	for _, p := range pfns {
		k.TouchPFN(p) // consume mirror
	}
	if err := k.Free(1); err != nil {
		t.Fatal(err)
	}
	pfns2, _ := k.Alloc(2, 4)
	// Reallocated frames are fresh again: first touch mirrors.
	if g := k.TouchPFN(pfns2[0]); !IsMirror(g) {
		t.Fatal("reallocated frame not mirrored on first touch")
	}
}

// TestAllocPFNMatchesAlloc is a differential property test: across
// seeded Alloc/Free sequences under several allocator salts, the block
// walk in AllocPFN and EachAllocPFN reproduces exactly the frame list
// Alloc returned, and rejects every offset or handle outside a live
// allocation.
func TestAllocPFNMatchesAlloc(t *testing.T) {
	for salt := 0; salt < 6; salt++ {
		rng := rand.New(rand.NewSource(int64(salt) + 1))
		k, err := NewKernel(Config{NrPages: 1 << 14, StatePages: 1 << 10}, salt)
		if err != nil {
			t.Fatal(err)
		}
		live := make(map[int32][]int64)
		var order []int32 // live handles, in allocation order
		var freed []int32
		next := int32(1)
		for step := 0; step < 120; step++ {
			if len(order) == 0 || rng.Intn(3) != 0 {
				// Sizes span single pages, non-powers of two and
				// allocations larger than one MaxOrder block.
				var n int64
				switch rng.Intn(3) {
				case 0:
					n = 1 + rng.Int63n(16)
				case 1:
					n = 1 + rng.Int63n(1<<MaxOrder)
				default:
					n = 1<<MaxOrder + 1 + rng.Int63n(3<<MaxOrder)
				}
				pfns, err := k.Alloc(next, n)
				if err != nil {
					continue // out of memory is fine
				}
				live[next] = pfns
				order = append(order, next)
				next++
			} else {
				i := rng.Intn(len(order))
				h := order[i]
				order = append(order[:i], order[i+1:]...)
				delete(live, h)
				if err := k.Free(h); err != nil {
					t.Fatal(err)
				}
				freed = append(freed, h)
			}
			for _, h := range order {
				pfns := live[h]
				for i, want := range pfns {
					if got, ok := k.AllocPFN(h, int64(i)); !ok || got != want {
						t.Fatalf("salt %d handle %d: AllocPFN(%d) = %d, %v; want %d", salt, h, i, got, ok, want)
					}
				}
				var walked []int64
				k.EachAllocPFN(h, func(pfn int64) { walked = append(walked, pfn) })
				if !slices.Equal(walked, pfns) {
					t.Fatalf("salt %d handle %d: EachAllocPFN visited %d frames, want %d in Alloc order", salt, h, len(walked), len(pfns))
				}
				for _, off := range []int64{-1, int64(len(pfns)), int64(len(pfns)) + 1} {
					if _, ok := k.AllocPFN(h, off); ok {
						t.Fatalf("salt %d handle %d: AllocPFN(%d) accepted, size %d", salt, h, off, len(pfns))
					}
				}
			}
			for _, h := range append(freed, next, -1) {
				if _, ok := k.AllocPFN(h, 0); ok {
					t.Fatalf("salt %d: AllocPFN on dead handle %d accepted", salt, h)
				}
				k.EachAllocPFN(h, func(int64) { t.Fatalf("salt %d: EachAllocPFN visited dead handle %d", salt, h) })
			}
		}
	}
}

// BenchmarkAllocPFN measures one OpTouch frame lookup in an allocation
// of ~7k pages (a handful of MaxOrder blocks plus a tail of smaller
// ones), cycling through every offset.
func BenchmarkAllocPFN(b *testing.B) {
	k, err := NewKernel(Config{NrPages: 1 << 14, StatePages: 1 << 10}, 0)
	if err != nil {
		b.Fatal(err)
	}
	const n = 7000
	if _, err := k.Alloc(1, n); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		pfn, ok := k.AllocPFN(1, int64(i%n))
		if !ok {
			b.Fatal("lookup failed")
		}
		sum += pfn
	}
	sinkPFN = sum
}

var sinkPFN int64

func TestNewKernelValidation(t *testing.T) {
	if _, err := NewKernel(Config{NrPages: 0}, 0); err == nil {
		t.Fatal("zero-page kernel accepted")
	}
	if _, err := NewKernel(Config{NrPages: 10, StatePages: 11}, 0); err == nil {
		t.Fatal("state > total accepted")
	}
}

func TestSaltChangesAllocation(t *testing.T) {
	get := func(salt int) int64 {
		k, _ := NewKernel(Config{NrPages: 1 << 16, StatePages: 1 << 10}, salt)
		pfns, err := k.Alloc(1, 1024)
		if err != nil {
			t.Fatal(err)
		}
		return pfns[0]
	}
	if get(0) == get(3) {
		t.Fatal("salt did not change allocation placement")
	}
}
