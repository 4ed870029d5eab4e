package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Epoch fence file, little-endian. The fence is the durable half of failover:
// it records the highest epoch (term) this data directory has observed and
// whether this node owns it — i.e. whether local ingest may acknowledge
// writes under it. A promote fsyncs {epoch, owned: true} before the first
// write of the new term is acknowledged; a node that observes a higher epoch
// from anyone fsyncs {epoch, owned: false} and fail-stops ingest, which is
// what keeps a deposed primary fenced across its own reboots.
//
//	[8]byte  magic "EFDFENCE"
//	uint32   format version (1)
//	uint64   epoch
//	uint64   epoch start version (first graph version of the epoch; 0 unknown)
//	uint8    owned (1 = local ingest may acknowledge writes in this epoch; else 0)
//	uint32   crc32c over the 29 bytes above
//
// The file is exactly these 33 bytes. A missing fence file means no epoch
// was ever promoted or adopted here: epoch 0, owned — the single-primary
// behaviour.

var fenceMagic = [8]byte{'E', 'F', 'D', 'F', 'E', 'N', 'C', 'E'}

const (
	fenceFormat   = uint32(1)
	fenceHdrBytes = 8 + 4 + 8 + 8 + 1
	fenceFileName = "fence"
)

// fenceState is the decoded fence file.
type fenceState struct {
	epoch uint64
	start uint64
	owned bool
}

// encodeFence lays fs out in the fence file format above.
func encodeFence(fs fenceState) []byte {
	buf := make([]byte, fenceHdrBytes+4)
	copy(buf[:8], fenceMagic[:])
	binary.LittleEndian.PutUint32(buf[8:], fenceFormat)
	binary.LittleEndian.PutUint64(buf[12:], fs.epoch)
	binary.LittleEndian.PutUint64(buf[20:], fs.start)
	if fs.owned {
		buf[28] = 1
	}
	binary.LittleEndian.PutUint32(buf[fenceHdrBytes:], crc32.Checksum(buf[:fenceHdrBytes], castagnoli))
	return buf
}

// decodeFence parses the bytes of a fence file. Anything encodeFence could
// not have written — a wrong length, magic or format, a checksum mismatch,
// an owned byte other than 0 or 1 — is an error.
func decodeFence(data []byte) (fenceState, error) {
	if len(data) != fenceHdrBytes+4 || [8]byte(data[:8]) != fenceMagic {
		return fenceState{}, fmt.Errorf("persist: fence file: bad magic or length")
	}
	if format := binary.LittleEndian.Uint32(data[8:]); format != fenceFormat {
		return fenceState{}, fmt.Errorf("persist: fence file: unsupported format %d", format)
	}
	if crc32.Checksum(data[:fenceHdrBytes], castagnoli) != binary.LittleEndian.Uint32(data[fenceHdrBytes:]) {
		return fenceState{}, fmt.Errorf("persist: fence file: checksum mismatch")
	}
	if data[28] > 1 {
		return fenceState{}, fmt.Errorf("persist: fence file: owned byte %d", data[28])
	}
	return fenceState{
		epoch: binary.LittleEndian.Uint64(data[12:]),
		start: binary.LittleEndian.Uint64(data[20:]),
		owned: data[28] == 1,
	}, nil
}

// writeFenceFile durably publishes fs under dir (tmp → fsync → rename →
// dir fsync).
func writeFenceFile(dir string, fs fenceState) error {
	path := filepath.Join(dir, fenceFileName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating fence file: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename succeeds
	_, err = f.Write(encodeFence(fs))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("persist: writing fence file: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("persist: publishing fence file: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("persist: syncing fence dir: %w", err)
	}
	return nil
}

// readFenceFile loads the fence under dir. ok is false when no fence file
// exists (a pre-epoch directory). A corrupt fence is an error, not a silent
// epoch-0: acting as an owner on garbage could fork acknowledged history.
func readFenceFile(dir string) (fs fenceState, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, fenceFileName))
	if os.IsNotExist(err) {
		return fenceState{}, false, nil
	}
	if err != nil {
		return fenceState{}, false, fmt.Errorf("persist: reading fence file: %w", err)
	}
	fs, err = decodeFence(data)
	return fs, err == nil, err
}
