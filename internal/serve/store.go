package serve

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
	"sync/atomic"

	"repro/internal/serve/fsio"
)

// storeDegradeAfter is the number of consecutive write failures that
// switches a file store off.
const storeDegradeAfter = 3

// fileStore is the one durable keyed store behind the result spool and
// the job checkpoints: one file per job digest, `<dir>/<digest><ext>`,
// holding the frame {"crc":…,"id":…,"data":…}. The CRC covers exactly
// the data bytes the file holds, and the id binds the file to its
// digest, so bit rot, a torn write on storage that lies about fsync, an
// operator's stray edit and a file copied onto another digest's name
// all fail verification; such a file is renamed aside to `.corrupt` and
// reported as absent, never served.
//
// Writes go through fsio.WriteFileAtomic with full fsync discipline.
// Their failures are counted, not returned: a streak of
// storeDegradeAfter of them switches the store off (no further reads or
// writes) and fires onDegrade exactly once. Everything a store holds is
// an optimization — a spooled result can be recomputed, a checkpoint only
// saves work — so a sick disk costs redundant work, never a job.
//
// A nil *fileStore is a disabled store: reads miss, writes are dropped.
type fileStore struct {
	fs        fsio.FS
	dir, ext  string
	onDegrade func() // called once, on the flip to degraded

	failStreak atomic.Uint32
	degraded   atomic.Bool

	loaded      atomic.Uint64
	saved       atomic.Uint64
	failed      atomic.Uint64
	dropped     atomic.Uint64
	quarantined atomic.Uint64
}

// newFileStore opens (creating if needed) a store directory; an empty
// dir gives the nil, disabled store. fs nil means the real filesystem.
func newFileStore(fs fsio.FS, dir, ext string, onDegrade func()) (*fileStore, error) {
	if dir == "" {
		return nil, nil
	}
	fs = fsio.OrOS(fs)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store %s: %w", dir, err)
	}
	return &fileStore{fs: fs, dir: dir, ext: ext, onDegrade: onDegrade}, nil
}

// active reports whether I/O for d should be attempted. Only well-formed
// digests (Digest.Valid) ever reach a path: the digest becomes a file
// name, and job ids arrive from the URL path, so an unchecked one could
// address arbitrary files outside the store directory.
func (st *fileStore) active(d Digest) bool {
	return st != nil && !st.degraded.Load() && d.Valid()
}

func (st *fileStore) path(d Digest) string { return st.dir + "/" + string(d) + st.ext }

// storeFrame is the on-disk frame, decoded.
type storeFrame struct {
	CRC  uint32          `json:"crc"`
	ID   Digest          `json:"id"`
	Data json.RawMessage `json:"data"`
}

// get returns the payload stored for d. A file that does not decode,
// fails its CRC or names another digest is quarantined and reported as
// absent.
func (st *fileStore) get(d Digest) ([]byte, bool) {
	if !st.active(d) {
		return nil, false
	}
	raw, err := st.fs.ReadFile(st.path(d))
	if err != nil {
		return nil, false
	}
	var f storeFrame
	if json.Unmarshal(raw, &f) == nil && f.ID == d && len(f.Data) > 0 && f.CRC == crc32.ChecksumIEEE(f.Data) {
		st.loaded.Add(1)
		return f.Data, true
	}
	st.quarantined.Add(1)
	//lint:allow errsink -- best-effort quarantine of an already-corrupt file; the miss and the counter are the signal
	_ = st.fs.Rename(st.path(d), st.path(d)+".corrupt")
	return nil, false
}

// encodeFrame assembles the frame around data verbatim rather than
// re-encoding it, so the CRC is taken over exactly the bytes written:
// json.Marshal would compact and HTML-escape an embedded RawMessage, and
// a checksum of the caller's bytes would then fail on read-back.
func encodeFrame(d Digest, data []byte) []byte {
	buf := make([]byte, 0, len(data)+len(d)+40)
	buf = append(buf, `{"crc":`...)
	buf = strconv.AppendUint(buf, uint64(crc32.ChecksumIEEE(data)), 10)
	buf = append(buf, `,"id":"`...)
	buf = append(buf, d...)
	buf = append(buf, `","data":`...)
	buf = append(buf, data...)
	return append(buf, '}')
}

// put atomically replaces d's file with data, which must be JSON, and
// reports whether the file was written.
func (st *fileStore) put(d Digest, data []byte) bool {
	if !st.active(d) {
		return false
	}
	if err := fsio.WriteFileAtomic(st.fs, st.path(d), encodeFrame(d, data)); err != nil {
		st.failed.Add(1)
		if st.failStreak.Add(1) >= storeDegradeAfter && st.degraded.CompareAndSwap(false, true) && st.onDegrade != nil {
			st.onDegrade()
		}
		return false
	}
	st.failStreak.Store(0)
	st.saved.Add(1)
	return true
}

// drop removes d's file, if any.
func (st *fileStore) drop(d Digest) {
	if st.active(d) && st.fs.Remove(st.path(d)) == nil {
		st.dropped.Add(1)
	}
}

// Degraded reports whether the store has been switched off after
// persistent write failures.
func (st *fileStore) Degraded() bool { return st != nil && st.degraded.Load() }

// CheckpointStats is the serialisable checkpoint-store state for
// /v1/stats.
type CheckpointStats struct {
	Saved       uint64 `json:"saved"`
	Loaded      uint64 `json:"loaded"`
	Dropped     uint64 `json:"dropped"`
	Quarantined uint64 `json:"quarantined,omitempty"`
	Degraded    bool   `json:"degraded,omitempty"`
}

// Stats snapshots the counters.
func (st *fileStore) Stats() CheckpointStats {
	if st == nil {
		return CheckpointStats{}
	}
	return CheckpointStats{
		Saved:       st.saved.Load(),
		Loaded:      st.loaded.Load(),
		Dropped:     st.dropped.Load(),
		Quarantined: st.quarantined.Load(),
		Degraded:    st.degraded.Load(),
	}
}
