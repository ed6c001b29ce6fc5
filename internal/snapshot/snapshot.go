// Package snapshot defines the on-disk artifacts of the system: the
// snapshot memory image and the three working-set formats the
// evaluated prefetchers use.
//
//   - MemoryImage (.snapmem): the VM sandbox's guest memory serialized
//     after function initialization and pre-warming. Page contents are
//     represented by 8-byte tags (0 = zero page) rather than 4KiB
//     payloads — see DESIGN.md §2 — plus the guest allocator metadata
//     Faast relies on.
//   - OffsetsWS (.snapbpf-ws): SnapBPF's working set — *only* grouped
//     page offsets, sorted by earliest access; no page data (§3.1).
//   - PagedWS (.reap-ws): REAP/Faast working sets — page offsets plus
//     the page contents serialized at record time (§2.1).
//   - RegionWS (.faasnap-ws): FaaSnap's coalesced working-set regions
//     including gap pages, with contents (§2.1).
//
// All formats carry a magic number, a version and a CRC32 so corrupt
// artifacts are rejected rather than silently mis-prefetched.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// Format magics.
const (
	magicMemory  = 0x534e504d // "SNPM"
	magicOffsets = 0x53424657 // "SBFW"
	magicPaged   = 0x52454157 // "REAW"
	magicRegion  = 0x46534e57 // "FSNW"

	formatVersion = 1
)

// Group is a contiguous page range [Start, Start+NPages) in the
// snapshot memory file.
type Group struct {
	Start  int64
	NPages int64
}

// End returns one past the last page of the group.
func (g Group) End() int64 { return g.Start + g.NPages }

// MemoryImage is a serialized guest memory snapshot.
type MemoryImage struct {
	// NrPages is the guest memory size in pages; the on-disk memory
	// file conceptually holds NrPages*4KiB of data.
	NrPages int64

	// StatePages is the initialized prefix holding kernel + function
	// state at snapshot time.
	StatePages int64

	// PageTags holds one content tag per page; tag 0 means the page
	// is all zeroes (what FaaSnap's zero-scan detects).
	PageTags []uint64

	// FreePFNs lists the frames that were in the guest buddy
	// allocator's free pool at snapshot time (Faast's metadata).
	FreePFNs []int64
}

// Validate checks internal consistency.
func (m *MemoryImage) Validate() error {
	if m.NrPages <= 0 {
		return fmt.Errorf("snapshot: non-positive page count %d", m.NrPages)
	}
	if m.StatePages < 0 || m.StatePages > m.NrPages {
		return fmt.Errorf("snapshot: state pages %d out of range (%d total)", m.StatePages, m.NrPages)
	}
	if int64(len(m.PageTags)) != m.NrPages {
		return fmt.Errorf("snapshot: %d tags for %d pages", len(m.PageTags), m.NrPages)
	}
	for _, pfn := range m.FreePFNs {
		if pfn < 0 || pfn >= m.NrPages {
			return fmt.Errorf("snapshot: free pfn %d out of range", pfn)
		}
	}
	return nil
}

// ZeroPages returns the number of zero-tagged pages.
func (m *MemoryImage) ZeroPages() int64 {
	var n int64
	for _, t := range m.PageTags {
		if t == 0 {
			n++
		}
	}
	return n
}

// crcWriter accumulates a CRC32 of everything written.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	return cw.w.Write(p)
}

type crcReader struct {
	r   io.Reader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p[:n])
	return n, err
}

// maxPrealloc caps how many elements a decoder allocates on the word
// of a header count alone. Past it, slices grow only as records
// arrive, so a forged count costs a constant factor of the bytes
// actually read rather than of the count it claims.
const maxPrealloc = 1 << 12

// readWords reads n little-endian 8-byte values, growing the result at
// most maxPrealloc values at a time.
func readWords[T int64 | uint64](r io.Reader, n int64) ([]T, error) {
	out := make([]T, 0, min(n, maxPrealloc))
	for rest := n; rest > 0; {
		k := int(min(rest, maxPrealloc))
		old := len(out)
		out = slices.Grow(out, k)[:old+k]
		if err := binary.Read(r, binary.LittleEndian, out[old:]); err != nil {
			return nil, err
		}
		rest -= int64(k)
	}
	return out, nil
}

// readGroups reads n (start, npages) records, growing the result as
// records arrive (see maxPrealloc).
func readGroups(r io.Reader, n int64) ([]Group, error) {
	out := make([]Group, 0, min(n, maxPrealloc))
	for i := int64(0); i < n; i++ {
		var v [2]int64
		if err := binary.Read(r, binary.LittleEndian, v[:]); err != nil {
			return nil, err
		}
		out = append(out, Group{Start: v[0], NPages: v[1]})
	}
	return out, nil
}

func writeHeader(w io.Writer, magic uint32) error {
	if err := binary.Write(w, binary.LittleEndian, magic); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, uint32(formatVersion))
}

func readHeader(r io.Reader, wantMagic uint32, what string) error {
	var magic, version uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("snapshot: reading %s header: %w", what, err)
	}
	if magic != wantMagic {
		return fmt.Errorf("snapshot: bad magic %#x for %s (want %#x)", magic, what, wantMagic)
	}
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return fmt.Errorf("snapshot: reading %s version: %w", what, err)
	}
	if version != formatVersion {
		return fmt.Errorf("snapshot: unsupported %s version %d", what, version)
	}
	return nil
}

// WriteMemoryImage serializes m to w.
func WriteMemoryImage(w io.Writer, m *MemoryImage) error {
	if err := m.Validate(); err != nil {
		return err
	}
	cw := &crcWriter{w: w}
	if err := writeHeader(cw, magicMemory); err != nil {
		return err
	}
	for _, v := range []int64{m.NrPages, m.StatePages, int64(len(m.FreePFNs))} {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(cw, binary.LittleEndian, m.PageTags); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, m.FreePFNs); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, cw.crc)
}

// ReadMemoryImage parses a memory image from r, verifying the CRC.
func ReadMemoryImage(r io.Reader) (*MemoryImage, error) {
	cr := &crcReader{r: r}
	if err := readHeader(cr, magicMemory, "memory image"); err != nil {
		return nil, err
	}
	var nrPages, statePages, nrFree int64
	for _, p := range []*int64{&nrPages, &statePages, &nrFree} {
		if err := binary.Read(cr, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("snapshot: truncated memory image: %w", err)
		}
	}
	if nrPages <= 0 || nrPages > 1<<32 || nrFree < 0 || nrFree > nrPages {
		return nil, fmt.Errorf("snapshot: implausible memory image header (%d pages, %d free)", nrPages, nrFree)
	}
	m := &MemoryImage{NrPages: nrPages, StatePages: statePages}
	var err error
	if m.PageTags, err = readWords[uint64](cr, nrPages); err != nil {
		return nil, fmt.Errorf("snapshot: truncated page tags: %w", err)
	}
	if m.FreePFNs, err = readWords[int64](cr, nrFree); err != nil {
		return nil, fmt.Errorf("snapshot: truncated free-pfn list: %w", err)
	}
	sum := cr.crc
	var want uint32
	if err := binary.Read(r, binary.LittleEndian, &want); err != nil {
		return nil, fmt.Errorf("snapshot: missing checksum: %w", err)
	}
	if sum != want {
		return nil, fmt.Errorf("snapshot: memory image checksum mismatch (%#x != %#x)", sum, want)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveFile writes the image to path atomically-ish (via rename-free
// simple write; artifacts are build products, not databases).
func (m *MemoryImage) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := WriteMemoryImage(bw, m); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadMemoryImage reads an image from path.
func LoadMemoryImage(path string) (*MemoryImage, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMemoryImage(bufio.NewReader(f))
}
