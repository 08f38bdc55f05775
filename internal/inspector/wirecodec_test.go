package inspector

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// TestWireDecoderLongLines: a canonical line longer than the read buffer
// is assembled and decoded in one pass, and a line past maxWireLine goes
// to encoding/json as read so far; either way the households are the old
// decoder's.
func TestWireDecoderLongLines(t *testing.T) {
	g := NewGenerator(5)
	long, huge := g.Household(0), g.Household(1)
	long.Devices[0].UserLabel = strings.Repeat("l", 100<<10)
	huge.Devices[0].UserLabel = strings.Repeat("h", maxWireLine+1)
	for _, hs := range [][]*Household{
		{long, g.Household(2)},
		{g.Household(2), huge, long},
	} {
		var body bytes.Buffer
		if err := EncodeWire(&body, hs); err != nil {
			t.Fatal(err)
		}
		got, err := drainWire(NewWireDecoder(bytes.NewReader(body.Bytes())))
		if err != nil {
			t.Fatal(err)
		}
		want, err := oldWireDecode(bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(hs) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d households, want the old decoder's %d", len(got), len(want))
		}
	}
}

// TestWireDecoderReadErrors: a read error cutting the body anywhere — mid
// record, at a line end, mid escape — surfaces after the same households,
// as the same error, as it did from the old decoder.
func TestWireDecoderReadErrors(t *testing.T) {
	var body bytes.Buffer
	g := NewGenerator(6)
	if err := EncodeWire(&body, []*Household{g.Household(0), g.Household(1), g.Household(2)}); err != nil {
		t.Fatal(err)
	}
	b := body.Bytes()
	first := bytes.IndexByte(b, '\n') + 1
	boom := errors.New("connection reset")
	for _, n := range []int{0, 1, first / 2, first - 1, first, first + 1, len(b) - 1, len(b)} {
		cut := func() io.Reader { return io.MultiReader(bytes.NewReader(b[:n]), iotest.ErrReader(boom)) }
		got, gotErr := drainWire(NewWireDecoder(cut()))
		want, wantErr := oldWireDecode(cut())
		if !errors.Is(gotErr, boom) || errString(gotErr) != errString(wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("cut at %d: %d households, err %v; old decoder: %d, err %v", n, len(got), gotErr, len(want), wantErr)
		}
	}
}

// TestAppendCount: the byte-count writer matches strconv on both sides of
// its table path, negatives and int's extremes included.
func TestAppendCount(t *testing.T) {
	for v := -200; v <= 20000; v++ {
		if got, want := string(appendCount([]byte("x"), v)), "x"+strconv.Itoa(v); got != want {
			t.Fatalf("appendCount(%d) = %q, want %q", v, got, want)
		}
	}
	for _, v := range []int{math.MinInt, math.MaxInt, 99999, 100000} {
		if got, want := string(appendCount(nil, v)), strconv.Itoa(v); got != want {
			t.Errorf("appendCount(%d) = %q, want %q", v, got, want)
		}
	}
}
