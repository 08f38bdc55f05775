package pcap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"iotlan/internal/layers"
	"iotlan/internal/netx"
)

// MACWriter streams frames into one libpcap file per source MAC in a
// directory, named by the MAC's twelve lower-case hex digits plus ".pcap",
// as the MonIoTr AP keeps one tcpdump file per device. Add has the shape of
// a network tap, so frames reach their file as they are sent and no capture
// is held in memory. Once closed, each file holds exactly the bytes
// WriteFile writes for that MAC's frames in arrival order. A frame too
// short for an Ethernet header belongs to no file.
//
// The writer keeps its first create or write error: Add drops every later
// frame and Close returns the error. A MACWriter is not safe for concurrent
// use.
type MACWriter struct {
	dir   string
	files map[netx.MAC]*macFile
	order []*macFile // creation order, which Close follows
	err   error
}

type macFile struct {
	f  *os.File
	bw *bufio.Writer
	// snaplen is the header's due snaplen: defaultSnaplen until a larger
	// record arrives.
	snaplen uint32
}

// NewMACWriter creates dir if it does not exist. Each MAC's file is created
// on that MAC's first frame.
func NewMACWriter(dir string) (*MACWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &MACWriter{dir: dir, files: make(map[netx.MAC]*macFile)}, nil
}

// Add writes frame, captured at t, to its source MAC's file.
func (w *MACWriter) Add(t time.Time, frame []byte) {
	if w.err != nil {
		return
	}
	var eth layers.Ethernet
	if eth.DecodeFromBytes(frame) != nil {
		return
	}
	mf, ok := w.files[eth.Src]
	if !ok {
		if mf, w.err = w.create(eth.Src); w.err != nil {
			return
		}
	}
	if l := uint32(len(frame)); l > mf.snaplen {
		mf.snaplen = l
	}
	w.err = writeRecord(mf.bw, t, frame)
}

func (w *MACWriter) create(mac netx.MAC) (*macFile, error) {
	f, err := os.Create(filepath.Join(w.dir, fmt.Sprintf("%x.pcap", mac[:])))
	if err != nil {
		return nil, err
	}
	mf := &macFile{f: f, bw: bufio.NewWriter(f), snaplen: defaultSnaplen}
	w.files[mac] = mf
	w.order = append(w.order, mf)
	// The header goes out with the default snaplen; close raises it if a
	// larger record follows.
	return mf, writeHeader(mf.bw, defaultSnaplen)
}

// Close flushes and closes every file, first raising a file's header
// snaplen to its largest record when that record is over 65,535 bytes. It
// returns the writer's first error: a create, write, flush or close error.
// Call it once, after the last Add.
func (w *MACWriter) Close() error {
	err := w.err
	for _, mf := range w.order {
		if cerr := mf.close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (mf *macFile) close() error {
	err := mf.bw.Flush()
	if err == nil && mf.snaplen > defaultSnaplen {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], mf.snaplen)
		_, err = mf.f.WriteAt(b[:], snaplenOffset)
	}
	if cerr := mf.f.Close(); err == nil {
		err = cerr
	}
	return err
}
