package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
)

// SyncMode selects how durable an Append is when it returns.
type SyncMode int

// Sync modes. Both write(2) the record before Append returns, so an
// acknowledged record survives SIGKILL; they differ only in fsync
// behaviour, i.e. machine-crash durability.
const (
	// SyncGroup fsyncs before Append returns, coalescing concurrent
	// appends into one fsync (group commit). The default.
	SyncGroup SyncMode = iota
	// SyncNone never fsyncs on Append (only on Rotate/Close). Fastest;
	// survives process death but not power loss.
	SyncNone
)

// ParseSyncMode maps a flag value ("group", "none") to a mode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "group", "":
		return SyncGroup, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("store: unknown sync mode %q (want group or none)", s)
}

// SegmentName renders a WAL segment filename; segments sort lexically in
// numeric order.
func SegmentName(seg int) string { return fmt.Sprintf("wal-%08d.log", seg) }

// Segments lists the WAL segment numbers present in dir, ascending.
func Segments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []int
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.log", &n); err == nil {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// Log is a segmented append-only record log. Append, Rotate and Close are
// safe for concurrent use.
//
// One failure rule: the first failed write, fsync, close or segment
// creation stops the log, and every later Append and Rotate returns that
// failure (matching both ErrClosed and its cause), so no record is
// acknowledged after a write or fsync the disk refused. Close stops the
// log too.
type Log struct {
	dir  string
	mode SyncMode

	mu       sync.Mutex // guards everything below
	cond     *sync.Cond // on mu; broadcast when an fsync ends or the log stops
	f        *os.File   // the open segment; nil once closed
	seg      int
	scratch  []byte
	writeSeq uint64 // records written to the kernel
	syncSeq  uint64 // records an fsync has covered
	// syncing is non-nil while an appender's fsync runs with mu released;
	// it receives that fsync's outcome.
	syncing chan error
	err     error // why the log stopped; nil while it runs
}

// OpenLog opens the WAL in dir, creating the directory if needed. It always
// starts a brand-new segment (max existing + 1): a previous crash may have
// torn the old tail, and appending after a torn record would hide every
// record behind it from replay.
func OpenLog(dir string, mode SyncMode) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	l := &Log{dir: dir, mode: mode, seg: next}
	l.cond = sync.NewCond(&l.mu)
	if l.f, err = createSegment(dir, next); err != nil {
		return nil, err
	}
	return l, nil
}

func createSegment(dir string, seg int) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, SegmentName(seg)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil { // make the creation itself durable
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs a directory so renames, creations and removals within it
// are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return dirSyncErr(err)
}

// dirSyncErr drops the EINVAL of a filesystem that cannot fsync a
// directory at all. Any other error (EIO above all) means entries the
// caller created, renamed or removed may not survive a power cut, so it
// fails the operation.
func dirSyncErr(err error) error {
	if errors.Is(err, syscall.EINVAL) {
		return nil
	}
	return err
}

// Segment returns the segment number currently being appended to.
func (l *Log) Segment() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seg
}

// Append writes one record. When it returns nil the record has reached the
// kernel (both modes) and — in group mode — stable storage.
//
// Group commit needs no goroutine of its own: an appender that finds no
// fsync running runs one, with mu released so later appenders can write
// meanwhile, and that fsync covers every record written before it started.
// Appenders it does not cover wait, and one of them runs the next.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.scratch = EncodeRecord(l.scratch[:0], payload)
	if _, err := l.f.Write(l.scratch); err != nil {
		return l.stop(err)
	}
	l.writeSeq++
	if l.mode == SyncNone {
		return nil
	}
	seq := l.writeSeq
	for l.syncSeq < seq && l.err == nil {
		if l.syncing != nil {
			l.cond.Wait()
			continue
		}
		l.fsync()
	}
	if l.syncSeq >= seq {
		return nil // an fsync covered the record, even if the log stopped since
	}
	return l.err
}

// fsync runs one fsync with mu released, covering every record written
// before it starts. A Rotate or Close that needs the segment meanwhile
// waits for the fsync through syncing and takes its outcome over. Caller
// holds mu, and no fsync runs.
func (l *Log) fsync() {
	done := make(chan error, 1)
	l.syncing = done
	f, target := l.f, l.writeSeq
	l.mu.Unlock()
	done <- f.Sync()
	l.mu.Lock()
	if l.syncing == done {
		l.syncing = nil
		l.synced(target, <-done)
	}
}

// synced records how an fsync covering records up to target ended and
// wakes the appenders waiting for it. Caller holds mu.
func (l *Log) synced(target uint64, err error) {
	if err != nil {
		l.stop(err)
	} else {
		l.syncSeq = target
	}
	l.cond.Broadcast()
}

// drain readies the open segment for closing: it waits for a running fsync
// to end, keeping mu so no appender starts another, then fsyncs every
// record written to the segment. It returns the failure that stopped the
// log, if one did. Caller holds mu.
func (l *Log) drain() error {
	if l.syncing != nil {
		if err := <-l.syncing; err != nil {
			l.stop(err)
		}
		l.syncing = nil
	}
	if l.err == nil && l.syncSeq < l.writeSeq {
		l.synced(l.writeSeq, l.f.Sync())
	}
	return l.err
}

// stop records the first failure, which stops the log, and wakes every
// appender waiting for an fsync. It returns the error every later Append
// and Rotate returns. Caller holds mu.
func (l *Log) stop(cause error) error {
	if l.err == nil {
		l.err = fmt.Errorf("%w: %w", ErrClosed, cause)
		l.cond.Broadcast()
	}
	return l.err
}

// Err returns the failure that stopped the log (ErrClosed once Close has
// run), or nil while the log runs.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Rotate syncs and closes the current segment and starts a fresh one,
// returning the new segment's number. Checkpointing calls this first: the
// snapshot then covers everything below the returned segment.
func (l *Log) Rotate() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.drain(); err != nil {
		return 0, err
	}
	err := l.f.Close()
	l.f = nil
	if err != nil {
		return 0, l.stop(err)
	}
	l.seg++
	if l.f, err = createSegment(l.dir, l.seg); err != nil {
		return 0, l.stop(err)
	}
	return l.seg, nil
}

// Close syncs and closes the open segment and stops the log. It returns
// its own sync or close error, or nil when a failure had already stopped
// the log; a second Close does nothing.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	stopped := l.err != nil
	err := l.drain()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	if stopped {
		return nil
	}
	if l.err == nil {
		l.err = ErrClosed
	}
	return err
}

// ReplayStats describes what a replay consumed.
type ReplayStats struct {
	Segments int // segments visited
	Records  int // records successfully applied
	// Truncated reports that a torn or corrupt record ended a segment
	// early; TruncatedSegment names the first such segment and Err holds
	// its framing error.
	Truncated        bool
	TruncatedSegment int
	Err              error
}

// replayBufBytes sizes the read buffer replay puts in front of a segment.
const replayBufBytes = 256 << 10

// ReplayLog feeds every intact record in segments >= fromSeg, in order, to
// fn. Each payload is a fresh slice fn may keep. A torn or corrupt record
// ends its segment — nothing after a bad frame in that segment is
// trustworthy — and replay goes on with the next segment, which a later
// Rotate or a restarted log wrote from its first byte: a log stops at its
// first failed write, so no record follows a torn one in its segment. The
// damage is reported in the stats, not as an error. fn errors abort the
// replay.
func ReplayLog(dir string, fromSeg int, fn func(payload []byte) error) (ReplayStats, error) {
	var st ReplayStats
	segs, err := Segments(dir)
	if err != nil {
		return st, err
	}
	for _, seg := range segs {
		if seg < fromSeg {
			continue
		}
		st.Segments++
		if err := replaySegment(dir, seg, fn, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

func replaySegment(dir string, seg int, fn func([]byte) error, st *ReplayStats) error {
	f, err := os.Open(filepath.Join(dir, SegmentName(seg)))
	if err != nil {
		return err
	}
	defer f.Close()
	// Buffered: a record's header and payload then cost one read(2) per
	// buffer fill instead of two per record.
	rr := NewRecordReader(bufio.NewReaderSize(f, replayBufBytes))
	for {
		payload, err := rr.Next()
		if err == io.EOF {
			return nil
		}
		if errors.Is(err, ErrRecordTruncated) || errors.Is(err, ErrRecordCorrupt) {
			if !st.Truncated {
				st.Truncated, st.TruncatedSegment, st.Err = true, seg, err
			}
			return nil
		}
		if err != nil {
			return err
		}
		st.Records++
		if err := fn(payload); err != nil {
			return err
		}
	}
}
