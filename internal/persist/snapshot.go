package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/stream"
)

// Snapshot file layout (format 3), little-endian.
//
//	[8]byte  magic "EFDSNAP1"
//	uint32   format version (3)
//	uint64   graph version
//	uint64   window watermark: version  (stream.WindowMark.Version)
//	int64    window watermark: wall     (stream.WindowMark.Wall, unix ns)
//	int64    written-at wall time (unix ns; recovery stamps restored edges)
//	uint64   epoch (failover term the snapshot was written under)
//	uint32   crc32c over the 52 header bytes above
//	[]byte   bipartite CSR codec blob (self-checksummed), to end of file
//
// Any other format word is refused with an error naming the file: formats 1
// and 2 are no longer read. The watermark is captured atomically with the
// CSR cut (stream.SnapshotWithMark), so a recovered graph adopts expiry
// progress consistent with the recovered edge set — combined with WAL
// tombstone replay for post-snapshot retires, no restart can resurrect an
// expired edge.
//
// Files are written to a .tmp sibling, synced, renamed into place, and the
// directory synced, so a crash mid-write leaves either the old set of
// snapshots or the new one — never a half-visible file. After a successful
// write, older snapshot files are deleted.

var snapMagic = [8]byte{'E', 'F', 'D', 'S', 'N', 'A', 'P', '1'}

const (
	snapFormat   = uint32(3)
	snapHdrBytes = 52 // header bytes ahead of their checksum
)

// SnapshotHeader is the decoded metadata of one snapshot file or stream.
type SnapshotHeader struct {
	// Version is the graph version the snapshot captures.
	Version uint64
	// Mark is the window expiry watermark at the cut.
	Mark stream.WindowMark
	// WrittenAt is the wall time of the write, unix ns.
	WrittenAt int64
	// Epoch is the failover term the snapshot was written under.
	Epoch uint64
}

func snapPath(dir string, version uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", version))
}

// encodeSnapshot writes the snapshot of g described by h to w: the only
// encoder of the file layout above.
func encodeSnapshot(w io.Writer, g *bipartite.Graph, h SnapshotHeader) error {
	var hdr [snapHdrBytes + 4]byte
	copy(hdr[:8], snapMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], snapFormat)
	binary.LittleEndian.PutUint64(hdr[12:], h.Version)
	binary.LittleEndian.PutUint64(hdr[20:], h.Mark.Version)
	binary.LittleEndian.PutUint64(hdr[28:], uint64(h.Mark.Wall))
	binary.LittleEndian.PutUint64(hdr[36:], uint64(h.WrittenAt))
	binary.LittleEndian.PutUint64(hdr[44:], h.Epoch)
	binary.LittleEndian.PutUint32(hdr[snapHdrBytes:], crc32.Checksum(hdr[:snapHdrBytes], castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("persist: writing snapshot header: %w", err)
	}
	return bipartite.WriteCSR(w, g)
}

// writeSnapshotFile durably writes the snapshot of g described by hdr and
// removes older snapshots. It returns the final path.
func writeSnapshotFile(dir string, g *bipartite.Graph, hdr SnapshotHeader) (string, error) {
	path := snapPath(dir, hdr.Version)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", fmt.Errorf("persist: creating snapshot: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename succeeds

	bw := bufio.NewWriterSize(f, 1<<20)
	err = encodeSnapshot(bw, g, hdr)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", fmt.Errorf("persist: syncing snapshot dir: %w", err)
	}
	// The new snapshot is durable; older ones are now redundant.
	for _, old := range listSnapshots(dir) {
		if old.version != hdr.Version {
			//ensemfdet:durability-ok superseded snapshots: the newer one is already fsynced and published
			os.Remove(old.path)
		}
	}
	return path, nil
}

// readSnapshotFile decodes and validates one snapshot file.
func readSnapshotFile(path string) (g *bipartite.Graph, hdr SnapshotHeader, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, hdr, fmt.Errorf("persist: opening snapshot: %w", err)
	}
	defer f.Close()
	return decodeSnapshot(f, filepath.Base(path))
}

// decodeSnapshot reads one snapshot from r, which must end where the CSR
// blob does; label names the source in errors (a file's base name, or
// "stream" for a shipped body).
func decodeSnapshot(r io.Reader, label string) (g *bipartite.Graph, out SnapshotHeader, err error) {
	br := bufio.NewReaderSize(r, 1<<20)

	// Magic and format word first, so a retired format is named as such
	// even when its file is shorter than a format-3 header.
	var hdr [snapHdrBytes + 4]byte
	if _, err := io.ReadFull(br, hdr[:12]); err != nil {
		return nil, out, fmt.Errorf("persist: snapshot %s: reading header: %w", label, err)
	}
	if [8]byte(hdr[:8]) != snapMagic {
		return nil, out, fmt.Errorf("persist: snapshot %s: bad magic", label)
	}
	if format := binary.LittleEndian.Uint32(hdr[8:]); format != snapFormat {
		return nil, out, fmt.Errorf("persist: snapshot %s: unsupported format %d", label, format)
	}
	if _, err := io.ReadFull(br, hdr[12:]); err != nil {
		return nil, out, fmt.Errorf("persist: snapshot %s: reading header: %w", label, err)
	}
	if crc32.Checksum(hdr[:snapHdrBytes], castagnoli) != binary.LittleEndian.Uint32(hdr[snapHdrBytes:]) {
		return nil, out, fmt.Errorf("persist: snapshot %s: header checksum mismatch", label)
	}
	out = SnapshotHeader{
		Version: binary.LittleEndian.Uint64(hdr[12:]),
		Mark: stream.WindowMark{
			Version: binary.LittleEndian.Uint64(hdr[20:]),
			Wall:    int64(binary.LittleEndian.Uint64(hdr[28:])),
		},
		WrittenAt: int64(binary.LittleEndian.Uint64(hdr[36:])),
		Epoch:     binary.LittleEndian.Uint64(hdr[44:]),
	}
	g, err = bipartite.ReadCSR(br)
	if err != nil {
		return nil, out, fmt.Errorf("persist: snapshot %s: %w", label, err)
	}
	if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
		if err == nil {
			err = errors.New("trailing bytes after the CSR blob")
		}
		return nil, out, fmt.Errorf("persist: snapshot %s: %w", label, err)
	}
	return g, out, nil
}

// snapFile names one on-disk snapshot.
type snapFile struct {
	path    string
	version uint64
}

// listSnapshots returns the snapshots in dir, newest version first. Files
// that do not parse as snapshot names (including .tmp leftovers) are ignored.
func listSnapshots(dir string) []snapFile {
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		return nil
	}
	out := make([]snapFile, 0, len(names))
	for _, name := range names {
		v, err := parseIndexedName(filepath.Base(name), "snap-", ".snap")
		if err != nil {
			continue
		}
		out = append(out, snapFile{path: name, version: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].version > out[j].version })
	return out
}
