package snapshot

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
)

// Decoder contract, shared by every on-disk format: a decoder either
// rejects its input or consumes a prefix of it that the matching
// encoder reproduces byte for byte, and it never allocates more than a
// constant factor of the bytes it actually read, whatever the header
// claims. The fuzz targets check the first half on arbitrary bytes
// (seeded from valid encodings and testdata/fuzz/); the forged-header
// tests check the second.

// fuzzRoundTrip registers the encodings of seeds and fuzzes read
// against write.
func fuzzRoundTrip[T any](f *testing.F, seeds []*T, write func(io.Writer, *T) error, read func(io.Reader) (*T, error)) {
	for _, s := range seeds {
		var buf bytes.Buffer
		if err := write(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		v, err := read(r)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := write(&out, v); err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("re-encoding differs from the accepted input:\n got %x\nwant %x", out.Bytes(), consumed)
		}
	})
}

func FuzzOffsetsWS(f *testing.F) {
	fuzzRoundTrip(f, []*OffsetsWS{
		{},
		{Groups: []Group{{10, 5}, {100, 1}, {7, 2}}},
	}, WriteOffsetsWS, ReadOffsetsWS)
}

func FuzzPagedWS(f *testing.F) {
	fuzzRoundTrip(f, []*PagedWS{
		{},
		{Pages: []int64{9, 2, 5}, Tags: []uint64{90, 20, 50}},
	}, WritePagedWS, ReadPagedWS)
}

func FuzzRegionWS(f *testing.F) {
	fuzzRoundTrip(f, []*RegionWS{
		{},
		{Regions: []Group{{0, 64}, {100, 32}}, WSPages: 80},
	}, WriteRegionWS, ReadRegionWS)
}

func FuzzMemoryImage(f *testing.F) {
	fuzzRoundTrip(f, []*MemoryImage{
		{NrPages: 1, PageTags: []uint64{0}},
		{NrPages: 4, StatePages: 2, PageTags: []uint64{0, 7, 0, 9}, FreePFNs: []int64{3}},
	}, WriteMemoryImage, ReadMemoryImage)
}

// forgedHeader returns a format header followed by the given int64
// fields and nothing else: a count that promises far more records
// than the input holds.
func forgedHeader(magic uint32, fields ...int64) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, []uint32{magic, formatVersion})
	binary.Write(&buf, binary.LittleEndian, fields)
	return buf.Bytes()
}

// assertForgedHeaderCheap decodes data, which must be rejected, and
// fails if the attempt allocated 1 MiB or more.
func assertForgedHeaderCheap(t *testing.T, data []byte, read func(io.Reader) error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("forged %d-byte header accepted", len(data))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("forged %d-byte header allocated %d bytes before failing", len(data), got)
	}
}

// The forged counts below sit well inside each decoder's plausibility
// cap, so only incremental growth keeps them cheap.
const forgedCount = 1 << 24

func TestReadOffsetsWSForgedCount(t *testing.T) {
	assertForgedHeaderCheap(t, forgedHeader(magicOffsets, forgedCount), func(r io.Reader) error {
		_, err := ReadOffsetsWS(r)
		return err
	})
}

func TestReadPagedWSForgedCount(t *testing.T) {
	assertForgedHeaderCheap(t, forgedHeader(magicPaged, forgedCount), func(r io.Reader) error {
		_, err := ReadPagedWS(r)
		return err
	})
}

func TestReadRegionWSForgedCount(t *testing.T) {
	assertForgedHeaderCheap(t, forgedHeader(magicRegion, forgedCount, 1), func(r io.Reader) error {
		_, err := ReadRegionWS(r)
		return err
	})
}

func TestReadMemoryImageForgedCount(t *testing.T) {
	assertForgedHeaderCheap(t, forgedHeader(magicMemory, forgedCount, 0, forgedCount), func(r io.Reader) error {
		_, err := ReadMemoryImage(r)
		return err
	})
}
