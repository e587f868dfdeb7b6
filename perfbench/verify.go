package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// headerLen is the prefix every payload carries: the object's version
// and index, so a mismatch can be told apart as a stale version or as
// corrupt bytes. Every object is at least 1 KiB, so the header fits.
const headerLen = 16

// fillPayload writes the bytes of version ver of object idx into buf.
// The body is a counter-based splitmix64 stream keyed by (seed, idx,
// ver), so two versions of one object differ everywhere.
func fillPayload(buf []byte, seed int64, idx int, ver int64) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(ver))
	binary.LittleEndian.PutUint64(buf[8:], uint64(idx))
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(idx)<<32 ^ uint64(ver)
	body := buf[headerLen:]
	i := 0
	for ; i+8 <= len(body); i += 8 {
		binary.LittleEndian.PutUint64(body[i:], splitmix(&x))
	}
	if i < len(body) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], splitmix(&x))
		copy(body[i:], tail[:])
	}
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// mismatch describes where got departs from want, the expected bytes
// of version ver starting at offset off. A read of the header that
// names another version is reported as stale; anything else as corrupt.
func mismatch(key string, ver int64, want, got []byte, off int) error {
	if off == 0 && len(got) >= 8 {
		if gv := int64(binary.LittleEndian.Uint64(got)); gv != ver {
			return fmt.Errorf("verify %s: stale version %d, want %d", key, gv, ver)
		}
	}
	n := min(len(want), len(got))
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			return fmt.Errorf("verify %s (version %d): corrupt byte at offset %d", key, ver, off+i)
		}
	}
	return fmt.Errorf("verify %s (version %d): length mismatch at offset %d: got %d bytes, want %d",
		key, ver, off, len(got), len(want))
}

// checkRange verifies a ranged read against the source slice.
func checkRange(key string, ver int64, want []byte, got []byte, off int) error {
	if len(got) == len(want) && bytes.Equal(got, want) {
		return nil
	}
	return mismatch(key, ver, want, got, off)
}

// cmpWriter is the io.Writer a whole-object read streams into: each
// segment is compared in place against the expected bytes, so the check
// adds no copy.
type cmpWriter struct {
	key  string
	ver  int64
	want []byte
	off  int
	err  error
}

func (w *cmpWriter) reset(key string, ver int64, want []byte) {
	*w = cmpWriter{key: key, ver: ver, want: want}
}

func (w *cmpWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	end := w.off + len(p)
	if end > len(w.want) || !bytes.Equal(p, w.want[w.off:end]) {
		w.err = mismatch(w.key, w.ver, w.want[w.off:min(end, len(w.want))], p, w.off)
		return 0, w.err
	}
	w.off = end
	return len(p), nil
}

// done reports the verdict once the read has been written out.
func (w *cmpWriter) done() error {
	if w.err == nil && w.off != len(w.want) {
		w.err = fmt.Errorf("verify %s (version %d): short read, %d of %d bytes", w.key, w.ver, w.off, len(w.want))
	}
	return w.err
}
