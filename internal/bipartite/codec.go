package bipartite

// Binary CSR codec: the persistence snapshot format. Unlike the text edge
// list, which re-sorts into CSR on read, this codec writes the dual-CSR
// arrays verbatim behind a versioned header and a
// trailing CRC32C, so loading a snapshot is a streamed copy plus an O(|E|)
// validation pass — no O(|E| log |E|) rebuild at boot. Offsets are uint32
// in memory and uint64 on disk, so the format outlives the in-memory width.
// The layout is little-endian throughout:
//
//	uint32 magic        csrMagic
//	uint32 format       csrFormatVersion
//	uint64 numUsers
//	uint64 numMerchants
//	uint64 numEdges
//	uint64 userOff[numUsers+1]
//	uint32 userAdj[numEdges]
//	uint64 merchOff[numMerchants+1]
//	uint32 merchAdj[numEdges]
//	uint32 crc32c       over every preceding byte (magic included)

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	csrMagic         = uint32(0xB1FA_C512)
	csrFormatVersion = uint32(1)

	// codecChunk bounds the scratch buffer (in array entries) the codec
	// streams arrays through, and the allocation growth step on read — a
	// corrupt header claiming 2^31 edges fails with ErrUnexpectedEOF after
	// reading the real file, instead of attempting one giant allocation.
	codecChunk = 1 << 15
)

// castagnoli is the CRC32C polynomial table shared by the CSR codec; it is
// the same checksum the persistence WAL frames records with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteCSR writes g's dual-CSR representation in the versioned, checksummed
// binary snapshot format. The output is a canonical function of the graph:
// two graphs with the same sizes and edge set encode byte-identically.
func WriteCSR(w io.Writer, g *Graph) error {
	nu, nm, ne := uint64(g.NumUsers()), uint64(g.NumMerchants()), uint64(g.NumEdges())
	cw := &crcWriter{w: w, buf: make([]byte, scratchBytes(nu, nm, ne))}
	cw.u32(csrMagic)
	cw.u32(csrFormatVersion)
	cw.u64(nu)
	cw.u64(nm)
	cw.u64(ne)
	cw.offsets(g.userOff, g.NumUsers()+1)
	cw.adjacency(g.userAdj)
	cw.offsets(g.merchOff, g.NumMerchants()+1)
	cw.adjacency(g.merchAdj)
	sum := cw.sum
	cw.u32raw(sum)
	if cw.err != nil {
		return fmt.Errorf("bipartite: writing CSR snapshot: %w", cw.err)
	}
	return nil
}

// ReadCSR parses a snapshot written by WriteCSR, verifying the checksum and
// the CSR invariants before returning the graph.
func ReadCSR(r io.Reader) (*Graph, error) {
	cr := &crcReader{r: r}
	if magic := cr.u32(); cr.err == nil && magic != csrMagic {
		return nil, fmt.Errorf("bipartite: bad CSR snapshot magic %#x", magic)
	}
	if format := cr.u32(); cr.err == nil && format != csrFormatVersion {
		return nil, fmt.Errorf("bipartite: unsupported CSR snapshot format %d (want %d)", format, csrFormatVersion)
	}
	numUsers := cr.u64()
	numMerchants := cr.u64()
	numEdges := cr.u64()
	if cr.err == nil && (numUsers > uint64(MaxNodeID)+1 || numMerchants > uint64(MaxNodeID)+1) {
		return nil, fmt.Errorf("bipartite: CSR snapshot declares %d users / %d merchants, beyond the id space", numUsers, numMerchants)
	}
	if cr.err == nil {
		if err := checkEdges(numEdges); err != nil {
			return nil, fmt.Errorf("bipartite: CSR snapshot declares too many edges: %w", err)
		}
	}
	if cr.err == nil && numEdges > math.MaxInt {
		// On a 32-bit platform int(numEdges) would go negative and read no
		// adjacency at all.
		return nil, fmt.Errorf("bipartite: CSR snapshot declares %d edges, beyond an int", numEdges)
	}
	cr.buf = make([]byte, scratchBytes(numUsers, numMerchants, numEdges))
	g := &Graph{
		userOff:  cr.offsets(int(numUsers)+1, uint32(numEdges)),
		userAdj:  cr.adjacency(int(numEdges)),
		merchOff: cr.offsets(int(numMerchants)+1, uint32(numEdges)),
		merchAdj: cr.adjacency(int(numEdges)),
	}
	sum := cr.sum
	stored := cr.u32raw()
	if cr.err != nil {
		return nil, fmt.Errorf("bipartite: reading CSR snapshot: %w", cr.err)
	}
	if stored != sum {
		return nil, fmt.Errorf("bipartite: CSR snapshot checksum mismatch: stored %#x, computed %#x", stored, sum)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("bipartite: CSR snapshot failed validation: %w", err)
	}
	return g, nil
}

// scratchBytes sizes the codec's scratch buffer to the largest array a graph
// of these sizes streams through it, and at most 8*codecChunk bytes: a graph
// of a few edges needs a few bytes, not the full chunk.
func scratchBytes(numUsers, numMerchants, numEdges uint64) int {
	need := max(8*(max(numUsers, numMerchants)+1), 4*numEdges)
	return int(min(need, 8*codecChunk))
}

// crcWriter streams fixed-width values through a scratch buffer, folding
// every byte into a running CRC32C. The first error sticks.
type crcWriter struct {
	w   io.Writer
	buf []byte
	sum uint32
	err error
}

func (c *crcWriter) write(p []byte) {
	if c.err != nil {
		return
	}
	c.sum = crc32.Update(c.sum, castagnoli, p)
	_, c.err = c.w.Write(p)
}

func (c *crcWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	c.write(b[:])
}

// u32raw writes v without folding it into the checksum — the trailer itself.
func (c *crcWriter) u32raw(v uint32) {
	if c.err != nil {
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, c.err = c.w.Write(b[:])
}

func (c *crcWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.write(b[:])
}

// offsets writes exactly n entries of off as uint64, padding with zeros when
// the slice is shorter (a zero-value graph has nil offset arrays but still
// round-trips as the canonical empty layout).
func (c *crcWriter) offsets(off []uint32, n int) {
	for base := 0; base < n; base += codecChunk {
		end := min(base+codecChunk, n)
		buf := c.buf[:8*(end-base)]
		for i := base; i < end; i++ {
			v := uint64(0)
			if i < len(off) {
				v = uint64(off[i])
			}
			binary.LittleEndian.PutUint64(buf[8*(i-base):], v)
		}
		c.write(buf)
	}
}

func (c *crcWriter) adjacency(adj []uint32) {
	for base := 0; base < len(adj); base += codecChunk {
		end := min(base+codecChunk, len(adj))
		buf := c.buf[:4*(end-base)]
		for i := base; i < end; i++ {
			binary.LittleEndian.PutUint32(buf[4*(i-base):], adj[i])
		}
		c.write(buf)
	}
}

// crcReader mirrors crcWriter: fixed-width reads through a scratch buffer
// with a running CRC32C and a sticky error.
type crcReader struct {
	r   io.Reader
	buf []byte
	sum uint32
	err error
}

func (c *crcReader) read(p []byte) {
	if c.err != nil {
		return
	}
	if _, c.err = io.ReadFull(c.r, p); c.err != nil {
		return
	}
	c.sum = crc32.Update(c.sum, castagnoli, p)
}

func (c *crcReader) u32() uint32 {
	var b [4]byte
	c.read(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// u32raw reads the trailer without folding it into the checksum.
func (c *crcReader) u32raw() uint32 {
	if c.err != nil {
		return 0
	}
	var b [4]byte
	if _, c.err = io.ReadFull(c.r, b[:]); c.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b[:])
}

func (c *crcReader) u64() uint64 {
	var b [8]byte
	c.read(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// offsets reads n uint64 entries into a uint32 slice, growing chunk by chunk
// so a corrupt length fails on EOF before committing to one huge allocation.
// An entry past numEdges is an error: no valid offset exceeds the edge count,
// so narrowing the ones that pass loses nothing.
func (c *crcReader) offsets(n int, numEdges uint32) []uint32 {
	if c.err != nil || n <= 0 {
		return nil
	}
	out := make([]uint32, 0, min(n, codecChunk))
	for base := 0; base < n && c.err == nil; base += codecChunk {
		end := min(base+codecChunk, n)
		buf := c.buf[:8*(end-base)]
		c.read(buf)
		if c.err != nil {
			return nil
		}
		for i := 0; i < end-base; i++ {
			v := binary.LittleEndian.Uint64(buf[8*i:])
			if v > uint64(numEdges) {
				c.err = fmt.Errorf("offset %d past the %d edges", v, numEdges)
				return nil
			}
			out = append(out, uint32(v))
		}
	}
	return out
}

func (c *crcReader) adjacency(n int) []uint32 {
	if c.err != nil || n < 0 {
		return nil
	}
	out := make([]uint32, 0, min(n, codecChunk))
	for base := 0; base < n && c.err == nil; base += codecChunk {
		end := min(base+codecChunk, n)
		buf := c.buf[:4*(end-base)]
		c.read(buf)
		if c.err != nil {
			return nil
		}
		for i := 0; i < end-base; i++ {
			out = append(out, binary.LittleEndian.Uint32(buf[4*i:]))
		}
	}
	return out
}
