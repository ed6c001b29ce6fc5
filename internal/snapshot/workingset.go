package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
)

// OffsetsWS is SnapBPF's working-set artifact: the grouped page
// offsets of the snapshot file, in the order prefetching must issue
// them (sorted by the earliest access time of any page in each group,
// §3.1). No page contents are stored — SnapBPF reads pages from the
// snapshot file itself.
type OffsetsWS struct {
	Groups []Group
}

// TotalPages returns the number of working-set pages covered.
func (ws *OffsetsWS) TotalPages() int64 {
	var n int64
	for _, g := range ws.Groups {
		n += g.NPages
	}
	return n
}

// Validate checks group sanity against a snapshot of nrPages pages.
func (ws *OffsetsWS) Validate(nrPages int64) error {
	for i, g := range ws.Groups {
		if g.NPages <= 0 || g.Start < 0 || g.End() > nrPages {
			return fmt.Errorf("snapshot: ws group %d out of range: [%d,%d) of %d", i, g.Start, g.End(), nrPages)
		}
	}
	return nil
}

// PagedWS is the REAP/Faast working-set artifact: individual page
// offsets in first-access order, with the page contents serialized
// alongside (the on-disk file is one page of data per entry).
type PagedWS struct {
	// Pages holds snapshot page indices in first-access order.
	Pages []int64
	// Tags holds the serialized contents (tag representation) of each
	// page, parallel to Pages.
	Tags []uint64
}

// TotalPages returns the number of entries.
func (ws *PagedWS) TotalPages() int64 { return int64(len(ws.Pages)) }

// Validate checks consistency.
func (ws *PagedWS) Validate(nrPages int64) error {
	if len(ws.Pages) != len(ws.Tags) {
		return fmt.Errorf("snapshot: paged ws: %d pages but %d tags", len(ws.Pages), len(ws.Tags))
	}
	for i, pg := range ws.Pages {
		if pg < 0 || pg >= nrPages {
			return fmt.Errorf("snapshot: paged ws entry %d out of range: %d", i, pg)
		}
	}
	return nil
}

// RegionWS is FaaSnap's working-set artifact: coalesced regions of the
// snapshot (working-set runs merged across small gaps), serialized
// with their contents. Gap pages inflate the file — the I/O
// amplification the paper measures with eBPF instrumentation (§2.1).
type RegionWS struct {
	Regions []Group
	// WSPages is the true (uninflated) working-set page count, kept
	// for inflation accounting.
	WSPages int64
}

// TotalPages returns the file size in pages, including gap inflation.
func (ws *RegionWS) TotalPages() int64 {
	var n int64
	for _, g := range ws.Regions {
		n += g.NPages
	}
	return n
}

// Inflation returns file pages per true working-set page (>= 1).
func (ws *RegionWS) Inflation() float64 {
	if ws.WSPages == 0 {
		return 1
	}
	return float64(ws.TotalPages()) / float64(ws.WSPages)
}

// Validate checks regions are sane, sorted and disjoint.
func (ws *RegionWS) Validate(nrPages int64) error {
	for i, g := range ws.Regions {
		if g.NPages <= 0 || g.Start < 0 || g.End() > nrPages {
			return fmt.Errorf("snapshot: region %d out of range: [%d,%d) of %d", i, g.Start, g.End(), nrPages)
		}
		if i > 0 && g.Start < ws.Regions[i-1].End() {
			return fmt.Errorf("snapshot: region %d overlaps predecessor", i)
		}
	}
	return nil
}

// GroupPages coalesces a set of page indices into maximal runs of
// consecutive pages, preserving nothing but membership. Used both by
// SnapBPF's offset grouping and FaaSnap's region building.
func GroupPages(pages []int64) []Group {
	if len(pages) == 0 {
		return nil
	}
	sorted := append([]int64(nil), pages...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var out []Group
	cur := Group{Start: sorted[0], NPages: 1}
	for _, pg := range sorted[1:] {
		switch {
		case pg == cur.End()-1: // duplicate
		case pg == cur.End():
			cur.NPages++
		default:
			out = append(out, cur)
			cur = Group{Start: pg, NPages: 1}
		}
	}
	return append(out, cur)
}

// CoalesceGroups merges groups separated by gaps of at most maxGap
// pages, absorbing the gap pages — FaaSnap's region coalescing. The
// input must be sorted by Start and disjoint (as GroupPages returns).
func CoalesceGroups(groups []Group, maxGap int64) []Group {
	if len(groups) == 0 {
		return nil
	}
	out := []Group{groups[0]}
	for _, g := range groups[1:] {
		last := &out[len(out)-1]
		if g.Start-last.End() <= maxGap {
			last.NPages = g.End() - last.Start
		} else {
			out = append(out, g)
		}
	}
	return out
}

// --- serialization ---

// WriteOffsetsWS serializes ws to w.
func WriteOffsetsWS(w io.Writer, ws *OffsetsWS) error {
	cw := &crcWriter{w: w}
	if err := writeHeader(cw, magicOffsets); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, int64(len(ws.Groups))); err != nil {
		return err
	}
	for _, g := range ws.Groups {
		if err := binary.Write(cw, binary.LittleEndian, []int64{g.Start, g.NPages}); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, cw.crc)
}

// ReadOffsetsWS parses an offsets working set.
func ReadOffsetsWS(r io.Reader) (*OffsetsWS, error) {
	cr := &crcReader{r: r}
	if err := readHeader(cr, magicOffsets, "offsets ws"); err != nil {
		return nil, err
	}
	var n int64
	if err := binary.Read(cr, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n < 0 || n > 1<<30 {
		return nil, fmt.Errorf("snapshot: implausible group count %d", n)
	}
	groups, err := readGroups(cr, n)
	if err != nil {
		return nil, fmt.Errorf("snapshot: truncated offsets ws: %w", err)
	}
	ws := &OffsetsWS{Groups: groups}
	sum := cr.crc
	var want uint32
	if err := binary.Read(r, binary.LittleEndian, &want); err != nil {
		return nil, err
	}
	if sum != want {
		return nil, fmt.Errorf("snapshot: offsets ws checksum mismatch")
	}
	return ws, nil
}

// WritePagedWS serializes ws to w.
func WritePagedWS(w io.Writer, ws *PagedWS) error {
	if len(ws.Pages) != len(ws.Tags) {
		return fmt.Errorf("snapshot: paged ws pages/tags length mismatch")
	}
	cw := &crcWriter{w: w}
	if err := writeHeader(cw, magicPaged); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, int64(len(ws.Pages))); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, ws.Pages); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, ws.Tags); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, cw.crc)
}

// ReadPagedWS parses a paged working set.
func ReadPagedWS(r io.Reader) (*PagedWS, error) {
	cr := &crcReader{r: r}
	if err := readHeader(cr, magicPaged, "paged ws"); err != nil {
		return nil, err
	}
	var n int64
	if err := binary.Read(cr, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n < 0 || n > 1<<30 {
		return nil, fmt.Errorf("snapshot: implausible page count %d", n)
	}
	ws := &PagedWS{}
	var err error
	if ws.Pages, err = readWords[int64](cr, n); err != nil {
		return nil, fmt.Errorf("snapshot: truncated paged ws: %w", err)
	}
	if ws.Tags, err = readWords[uint64](cr, n); err != nil {
		return nil, fmt.Errorf("snapshot: truncated paged ws tags: %w", err)
	}
	sum := cr.crc
	var want uint32
	if err := binary.Read(r, binary.LittleEndian, &want); err != nil {
		return nil, err
	}
	if sum != want {
		return nil, fmt.Errorf("snapshot: paged ws checksum mismatch")
	}
	return ws, nil
}

// WriteRegionWS serializes ws to w.
func WriteRegionWS(w io.Writer, ws *RegionWS) error {
	cw := &crcWriter{w: w}
	if err := writeHeader(cw, magicRegion); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, []int64{int64(len(ws.Regions)), ws.WSPages}); err != nil {
		return err
	}
	for _, g := range ws.Regions {
		if err := binary.Write(cw, binary.LittleEndian, []int64{g.Start, g.NPages}); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, cw.crc)
}

// ReadRegionWS parses a region working set.
func ReadRegionWS(r io.Reader) (*RegionWS, error) {
	cr := &crcReader{r: r}
	if err := readHeader(cr, magicRegion, "region ws"); err != nil {
		return nil, err
	}
	var hdr [2]int64
	if err := binary.Read(cr, binary.LittleEndian, hdr[:]); err != nil {
		return nil, err
	}
	n, wsPages := hdr[0], hdr[1]
	if n < 0 || n > 1<<30 {
		return nil, fmt.Errorf("snapshot: implausible region count %d", n)
	}
	regions, err := readGroups(cr, n)
	if err != nil {
		return nil, fmt.Errorf("snapshot: truncated region ws: %w", err)
	}
	ws := &RegionWS{Regions: regions, WSPages: wsPages}
	sum := cr.crc
	var want uint32
	if err := binary.Read(r, binary.LittleEndian, &want); err != nil {
		return nil, err
	}
	if sum != want {
		return nil, fmt.Errorf("snapshot: region ws checksum mismatch")
	}
	return ws, nil
}

// saveTo writes any of the WS types to a file.
func saveTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SaveFile writes the working set to path.
func (ws *OffsetsWS) SaveFile(path string) error {
	return saveTo(path, func(w io.Writer) error { return WriteOffsetsWS(w, ws) })
}

// SaveFile writes the working set to path.
func (ws *PagedWS) SaveFile(path string) error {
	return saveTo(path, func(w io.Writer) error { return WritePagedWS(w, ws) })
}

// SaveFile writes the working set to path.
func (ws *RegionWS) SaveFile(path string) error {
	return saveTo(path, func(w io.Writer) error { return WriteRegionWS(w, ws) })
}

// LoadOffsetsWS reads an offsets working set from path.
func LoadOffsetsWS(path string) (*OffsetsWS, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadOffsetsWS(bufio.NewReader(f))
}

// LoadPagedWS reads a paged working set from path.
func LoadPagedWS(path string) (*PagedWS, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadPagedWS(bufio.NewReader(f))
}

// LoadRegionWS reads a region working set from path.
func LoadRegionWS(path string) (*RegionWS, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadRegionWS(bufio.NewReader(f))
}
