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

// Log is a segmented append-only record log. Append is safe for concurrent
// use; Rotate/Close serialize with appends.
type Log struct {
	dir  string
	mode SyncMode

	mu      sync.Mutex // guards f, seg, scratch, writeSeq, closed
	f       *os.File
	seg     int
	scratch []byte
	closed  bool

	// Group commit: appenders wait on cond until syncSeq covers their
	// record; one flusher goroutine fsyncs and advances syncSeq.
	flushMu  sync.Mutex
	cond     *sync.Cond
	writeSeq uint64 // records handed to the kernel (mu)
	syncSeq  uint64 // records covered by an fsync (flushMu)
	syncErr  error  // sticky fsync failure (flushMu)
	flushC   chan struct{}
	done     chan struct{}
	flusherG sync.WaitGroup
	// stop closes done and waits for the flusher, once, whether Close or
	// a failed Rotate closed the log.
	stop sync.Once
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
	l := &Log{
		dir:    dir,
		mode:   mode,
		seg:    next,
		flushC: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.flushMu)
	if l.f, err = createSegment(dir, next); err != nil {
		return nil, err
	}
	if mode == SyncGroup {
		l.flusherG.Add(1)
		go l.flusher()
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
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.scratch = EncodeRecord(l.scratch[:0], payload)
	_, err := l.f.Write(l.scratch)
	l.writeSeq++
	seq := l.writeSeq
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if l.mode == SyncNone {
		return nil
	}
	// Group commit: nudge the flusher, wait until an fsync covers seq.
	select {
	case l.flushC <- struct{}{}:
	default: // a flush is already pending; it will cover us
	}
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	for l.syncSeq < seq && l.syncErr == nil {
		l.cond.Wait()
	}
	return l.syncErr
}

// flusher is the single group-commit goroutine: each fsync covers every
// record written before it started.
func (l *Log) flusher() {
	defer l.flusherG.Done()
	for {
		select {
		case <-l.done:
			return
		case <-l.flushC:
		}
		l.mu.Lock()
		target := l.writeSeq
		f, closed := l.f, l.closed
		l.mu.Unlock()
		var err error
		if closed {
			err = ErrClosed
		} else {
			err = f.Sync()
		}
		l.flushMu.Lock()
		if err != nil {
			l.syncErr = err
		} else if target > l.syncSeq {
			l.syncSeq = target
		}
		l.cond.Broadcast()
		l.flushMu.Unlock()
	}
}

// Rotate syncs and closes the current segment and starts a fresh one,
// returning the new segment's number. Checkpointing calls this first: the
// snapshot then covers everything below the returned segment.
func (l *Log) Rotate() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.f.Sync(); err != nil {
		return 0, err
	}
	if err := l.f.Close(); err != nil {
		return 0, err
	}
	l.seg++
	f, err := createSegment(l.dir, l.seg)
	if err != nil {
		l.closed = true // log is unusable without an open segment
		return 0, err
	}
	l.f = f
	return l.seg, nil
}

// Close syncs and closes the log, stops the group-commit flusher and
// releases pending waiters. After a failed Rotate, which already closed the
// segment, it skips the sync and close and returns nil; a second Close does
// nothing.
func (l *Log) Close() error {
	l.mu.Lock()
	var err error
	if !l.closed {
		l.closed = true
		err = l.f.Sync()
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
	}
	final := l.writeSeq
	l.mu.Unlock()

	l.stop.Do(func() {
		close(l.done)
		l.flusherG.Wait()
	})

	// Everything written is now synced (or the log failed); release waiters.
	l.flushMu.Lock()
	if err != nil && l.syncErr == nil {
		l.syncErr = err
	}
	if final > l.syncSeq {
		l.syncSeq = final
	}
	l.cond.Broadcast()
	l.flushMu.Unlock()
	return err
}

// ReplayStats describes what a replay consumed.
type ReplayStats struct {
	Segments int // segments visited
	Records  int // records successfully applied
	// Truncated reports that replay stopped at a torn or corrupt record
	// instead of a clean end-of-log; Err holds the framing error and
	// TruncatedSegment the segment it stopped in.
	Truncated        bool
	TruncatedSegment int
	Err              error
}

// replayBufBytes sizes the read buffer replay puts in front of a segment.
const replayBufBytes = 256 << 10

// ReplayLog feeds every intact record in segments >= fromSeg, in order, to
// fn. Each payload is a fresh slice fn may keep. A torn or corrupt record
// stops replay — the intact prefix is the durable state; anything after a
// bad frame is untrustworthy — and is reported in the stats, not as an
// error. fn errors abort the replay.
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
		stop, err := replaySegment(dir, seg, fn, &st)
		if err != nil {
			return st, err
		}
		if stop {
			break
		}
	}
	return st, nil
}

func replaySegment(dir string, seg int, fn func([]byte) error, st *ReplayStats) (stop bool, err error) {
	f, err := os.Open(filepath.Join(dir, SegmentName(seg)))
	if err != nil {
		return false, err
	}
	defer f.Close()
	// Buffered: a record's header and payload then cost one read(2) per
	// buffer fill instead of two per record.
	rr := NewRecordReader(bufio.NewReaderSize(f, replayBufBytes))
	for {
		payload, err := rr.Next()
		if err == io.EOF {
			return false, nil
		}
		if errors.Is(err, ErrRecordTruncated) || errors.Is(err, ErrRecordCorrupt) {
			st.Truncated = true
			st.TruncatedSegment = seg
			st.Err = err
			return true, nil
		}
		if err != nil {
			return false, err
		}
		st.Records++
		if err := fn(payload); err != nil {
			return false, err
		}
	}
}
