package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// TestReadFrameIntoReuses checks the buffer contract of ReadFrameInto: a
// frame that fits is read into the caller's bytes (no new array), a larger
// one grows them, and the short-read errors are ReadFrame's: io.EOF before
// any byte of a frame, io.ErrUnexpectedEOF inside one.
func TestReadFrameIntoReuses(t *testing.T) {
	big := bytes.Repeat([]byte{7}, 5000)
	var stream []byte
	stream = AppendFrame(stream, 1, OpGet, AppendU64(nil, 42))
	stream = AppendFrame(stream, 2, OpPut, []byte("second"))
	stream = AppendFrame(stream, 3, OpPut, big)
	br := bufio.NewReader(bytes.NewReader(stream))
	buf := make([]byte, 64)
	first := &buf[:1][0]
	for i, want := range [][]byte{AppendU64(nil, 42), []byte("second"), big} {
		id, _, body, err := ReadFrameInto(br, &buf)
		if err != nil || id != uint32(i+1) || !bytes.Equal(body, want) {
			t.Fatalf("frame %d: id %d, %d-byte body, %v", i+1, id, len(body), err)
		}
		if reused := &buf[:1][0] == first; reused != (i < 2) {
			t.Fatalf("frame %d: buffer reused %v, want %v", i+1, reused, i < 2)
		}
		if &body[:1][0] != &buf[5] {
			t.Fatalf("frame %d: body does not alias the buffer", i+1)
		}
	}
	if _, _, _, err := ReadFrameInto(br, &buf); err != io.EOF {
		t.Fatalf("at the end of the stream: %v, want io.EOF", err)
	}
	for _, cut := range []int{2, 4, 9} {
		br := bufio.NewReader(bytes.NewReader(stream[:cut]))
		if _, _, _, err := ReadFrameInto(br, &buf); err != io.ErrUnexpectedEOF {
			t.Fatalf("frame cut at byte %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}
