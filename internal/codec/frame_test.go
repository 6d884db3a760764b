package codec

import (
	"bytes"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB, 0x01}, 5000)}
	w := NewWriter(64)
	for _, p := range payloads {
		w.PutFrame(p)
	}
	r := NewReader(w.Bytes())
	for i, p := range payloads {
		got := r.Frame()
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(p))
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("trailing bytes: %d", r.Remaining())
	}
}

func TestFrameDetectsEveryBitFlip(t *testing.T) {
	w := NewWriter(64)
	w.PutFrame([]byte("spatio-temporal"))
	good := w.Bytes()
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		err := Catch(func() {
			r := NewReader(bad)
			payload := r.Frame()
			// A flip in the length prefix can still yield a frame that
			// parses; the checksum must then reject the payload.
			if string(payload) == "spatio-temporal" && r.Remaining() == 0 {
				t.Fatalf("byte %d: corruption not detected", i)
			}
			panic(ErrCorrupt{})
		})
		if err == nil {
			t.Fatalf("byte %d: no error", i)
		}
	}
}

func TestFrameTruncated(t *testing.T) {
	w := NewWriter(64)
	w.PutFrame([]byte("hello world"))
	b := w.Bytes()
	for _, cut := range []int{1, 4, len(b) - 1} {
		err := Catch(func() {
			NewReader(b[:cut]).Frame()
		})
		if err == nil {
			t.Fatalf("cut at %d: truncation not detected", cut)
		}
	}
}

// TestHugeLengthIsCorrupt pins the length checks of Frame and String
// against a length prefix so large that adding it to the read offset
// wraps negative: both must report ErrCorrupt, not index out of range.
func TestHugeLengthIsCorrupt(t *testing.T) {
	w := NewWriter(16)
	w.PutUvarint(1<<63 - 1)
	w.PutUvarint(0)
	huge := w.Bytes()
	for name, read := range map[string]func(r *Reader){
		"Frame":  func(r *Reader) { r.Frame() },
		"String": func(r *Reader) { _ = r.String() },
	} {
		if err := Catch(func() { read(NewReader(huge)) }); err == nil {
			t.Errorf("%s: a length of 2^63-1 over %d bytes was accepted", name, len(huge))
		}
	}
}
