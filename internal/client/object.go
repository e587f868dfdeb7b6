package client

import (
	"errors"
	"io"
	"sort"

	"infinicache/internal/bufpool"
	"infinicache/internal/protocol"
)

// Object is a zero-copy handle on a fetched object: it owns the pooled
// shard buffers a GET folded — one shard set per stripe — and exposes
// the object bytes without a reassembly copy. Consume it with WriteTo
// (streams each shard segment straight into an io.Writer), Read
// (sequential io.Reader), or Bytes (the one method that copies, for
// callers that need a contiguous []byte), then call Release: it
// returns every shard buffer to bufpool. Release is idempotent, and a
// released handle fails closed (ErrReleased / zero results) rather
// than touching recycled memory — the handle struct itself is NOT
// pooled, precisely so a late double Release can never free a buffer
// some other request now owns; only the shard buffers (the expensive
// part) recycle.
//
// An Object is not safe for concurrent use; its owner is whoever the
// returning call handed it to.
type Object struct {
	// stripes hold the object bytes [base, base+size) in stripe order;
	// a whole-object read has base 0, GetRange folds its span here too.
	stripes []stripeSet
	one     [1]stripeSet // inline storage: a single-stripe read allocates no stripe slice
	d       int
	base    int64
	size    int64
	off     int64 // Read cursor, relative to base
	valid   bool
}

// stripeSet is one stripe's shard set: the data shards that cover the
// read's bytes of the stripe (received, or reconstructed from any d).
type stripeSet struct {
	index       int   // stripe index within the object
	start, slen int64 // the stripe's object bytes [start, start+slen)
	shards      [][]byte
	got         int // distinct shards received
	served      bool
}

// ErrReleased is returned by Object methods used after Release.
var ErrReleased = errors.New("client: object used after Release")

// Size returns the object's length in bytes (0 after Release).
func (o *Object) Size() int {
	if !o.valid {
		return 0
	}
	return int(o.size)
}

// stripe returns the shard set for stripe index, adding it — in stripe
// order — on first sight.
func (o *Object) stripe(index int, start, slen int64, total int) *stripeSet {
	i := sort.Search(len(o.stripes), func(i int) bool { return o.stripes[i].index >= index })
	if i < len(o.stripes) && o.stripes[i].index == index {
		return &o.stripes[i]
	}
	if o.stripes == nil {
		o.stripes = o.one[:0]
	}
	o.stripes = append(o.stripes, stripeSet{})
	copy(o.stripes[i+1:], o.stripes[i:])
	o.stripes[i] = stripeSet{index: index, start: start, slen: slen, shards: make([][]byte, total)}
	return &o.stripes[i]
}

// segment returns the object bytes from absolute offset pos to the end
// of the shard that holds pos (or of the object, if sooner).
func (o *Object) segment(pos int64) []byte {
	i := sort.Search(len(o.stripes), func(i int) bool {
		return o.stripes[i].start+o.stripes[i].slen > pos
	})
	st := &o.stripes[i]
	idx := int((pos - st.start) / protocol.ShardSizeFor(st.slen, o.d))
	cs, ce := protocol.ShardSpan(st.start, st.slen, o.d, idx)
	return st.shards[idx][pos-cs : min(ce, o.base+o.size)-cs]
}

// WriteTo streams the object into w without assembling a contiguous
// copy: each shard's segment is written in order straight from the
// pooled buffer. It implements io.WriterTo.
func (o *Object) WriteTo(w io.Writer) (int64, error) {
	if !o.valid {
		return 0, ErrReleased
	}
	var written int64
	for written < o.size {
		n, err := w.Write(o.segment(o.base + written))
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Read copies the next bytes of the object into p (io.Reader). The
// cursor is per-handle; Bytes and WriteTo do not advance it.
func (o *Object) Read(p []byte) (int, error) {
	if !o.valid {
		return 0, ErrReleased
	}
	if o.off >= o.size {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && o.off < o.size {
		c := copy(p[n:], o.segment(o.base+o.off))
		n += c
		o.off += int64(c)
	}
	return n, nil
}

// Bytes assembles and returns a contiguous copy of the object; the copy
// is freshly allocated and survives Release.
func (o *Object) Bytes() []byte {
	if !o.valid {
		return nil
	}
	out := make([]byte, 0, o.size)
	for int64(len(out)) < o.size {
		out = append(out, o.segment(o.base+int64(len(out)))...)
	}
	return out
}

// Release recycles every shard buffer to bufpool and invalidates the
// handle. It is idempotent (double Release is a no-op) but never
// concurrent-safe.
func (o *Object) Release() {
	if !o.valid {
		return
	}
	o.valid = false
	for i := range o.stripes {
		bufpool.PutAll(o.stripes[i].shards)
	}
}
