package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Manifest describes one checkpoint. It is written last, after every shard
// snapshot has been synced, so a checkpoint directory without a readable
// manifest is an aborted attempt and is ignored (and eventually compacted).
type Manifest struct {
	// Seq is the WAL segment the log was rotated to just before the
	// snapshot was taken: boot loads the snapshot and replays segments
	// >= Seq.
	Seq int `json:"seq"`
	// Shards is the fleet shard count the snapshot was taken under.
	Shards int `json:"shards"`
	// Records counts the state units (households) captured.
	Records int `json:"records"`
}

const manifestName = "MANIFEST.json"

func CheckpointName(seq int) string { return fmt.Sprintf("ckpt-%08d", seq) }

// WriteCheckpoint atomically writes a checkpoint: one framed, checksummed
// snapshot blob per shard plus a manifest, staged in a temp directory,
// whose entries are fsynced before it is renamed into place. records is
// informational (manifest bookkeeping). It returns nil only once the
// rename is durable: a caller may then drop what the checkpoint replaces.
func WriteCheckpoint(dir string, seq int, shards [][]byte, records int) error {
	final := filepath.Join(dir, CheckpointName(seq))
	tmp := final + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	for i, blob := range shards {
		framed := EncodeRecord(nil, blob)
		if err := writeFileSync(filepath.Join(tmp, fmt.Sprintf("shard-%04d.snap", i)), framed); err != nil {
			return err
		}
	}
	mf, err := json.Marshal(Manifest{Seq: seq, Shards: len(shards), Records: records})
	if err != nil {
		return err
	}
	if err := writeFileSync(filepath.Join(tmp, manifestName), mf); err != nil {
		return err
	}
	if err := syncDir(tmp); err != nil {
		return err
	}
	if err := os.RemoveAll(final); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(dir)
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Checkpoints lists the checkpoint sequence numbers present in dir,
// ascending. Aborted attempts (.tmp staging dirs) are excluded.
func Checkpoints(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var seqs []int
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "ckpt-%08d", &n); err == nil && e.Name() == CheckpointName(n) {
			seqs = append(seqs, n)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// LatestCheckpoint loads the newest complete checkpoint: its manifest and
// every shard blob, checksum-verified. ok is false when no usable
// checkpoint exists (boot then replays the full WAL). A newer-but-damaged
// checkpoint falls back to the next older one.
func LatestCheckpoint(dir string) (mf Manifest, shards [][]byte, ok bool, err error) {
	seqs, err := Checkpoints(dir)
	if err != nil {
		return Manifest{}, nil, false, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		mf, shards, err := loadCheckpoint(filepath.Join(dir, CheckpointName(seqs[i])))
		if err == nil {
			return mf, shards, true, nil
		}
	}
	return Manifest{}, nil, false, nil
}

func loadCheckpoint(path string) (Manifest, [][]byte, error) {
	raw, err := os.ReadFile(filepath.Join(path, manifestName))
	if err != nil {
		return Manifest{}, nil, err
	}
	var mf Manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return Manifest{}, nil, err
	}
	shards := make([][]byte, mf.Shards)
	for i := range shards {
		framed, err := os.ReadFile(filepath.Join(path, fmt.Sprintf("shard-%04d.snap", i)))
		if err != nil {
			return Manifest{}, nil, err
		}
		rr := NewRecordReader(bytes.NewReader(framed))
		blob, err := rr.Next()
		if err != nil {
			return Manifest{}, nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if _, err := rr.Next(); err != io.EOF {
			return Manifest{}, nil, fmt.Errorf("shard %d: trailing bytes", i)
		}
		shards[i] = blob
	}
	return mf, shards, nil
}

// CompactBefore removes WAL segments below seq and checkpoints older than
// the one labeled seq — everything a boot from checkpoint seq no longer
// needs. Returns how many segments and checkpoints were removed.
func CompactBefore(dir string, seq int) (segs, ckpts int, err error) {
	ss, err := Segments(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, s := range ss {
		if s < seq {
			if err := os.Remove(filepath.Join(dir, SegmentName(s))); err != nil {
				return segs, ckpts, err
			}
			segs++
		}
	}
	cs, err := Checkpoints(dir)
	if err != nil {
		return segs, ckpts, err
	}
	for _, c := range cs {
		if c < seq {
			if err := os.RemoveAll(filepath.Join(dir, CheckpointName(c))); err != nil {
				return segs, ckpts, err
			}
			ckpts++
		}
	}
	// Aborted checkpoint attempts are garbage regardless of age.
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if e.IsDir() && filepath.Ext(e.Name()) == ".tmp" {
				_ = os.RemoveAll(filepath.Join(dir, e.Name()))
			}
		}
	}
	return segs, ckpts, syncDir(dir)
}
