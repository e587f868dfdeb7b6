package protocol

import (
	"strconv"
	"strings"
)

// Read-path wire contract. Every read — a whole-object GET, a ranged
// GET, each key of an MGet — is one TGet and one stream of stripe-tagged
// DATA frames; a whole-object read is the range [0, size).
//
// An object is a sequence of stripes, each an independent
// erasure-coded sub-object: stripe s holds object bytes
// [s*stripeData, min((s+1)*stripeData, size)) split across d data
// shards plus parity. Stripe 0 lives under the object's own key — a
// single-stripe streamed PUT is byte-identical to a PutCtx PUT — and
// stripe 0's mapping entry is the object's head: it alone carries the
// stream geometry (total size and data bytes per full stripe) of a
// multi-stripe object. Stripes s > 0 live under StripeKey(parent, s).
// An object without stream geometry is one stripe of its own size.
//
// SET frames for a head entry append the stream geometry after the
// chunk checksum:
//
//	Args[StreamArgSize]       total object size in bytes
//	Args[StreamArgStripeData] data bytes per full stripe
//
// A TGet carries [authoritative] for a whole object and
// [authoritative, off, n] for the byte range [off, off+n); the proxy
// clamps the range with ClampRange and plans it with PlanRange.
//
// The proxy answers with one DATA frame per chunk it relays, args
// indexed by the DataArg* constants. Per stripe of the plan it relays
// the planned data shards or, for a stripe the span covers whole (or
// one whose planned shard failed), the first d chunks of a fan-out
// over the stripe's present chunks. The client folds each stripe until
// it holds every planned shard or any d distinct shards, and the reply
// ends when every stripe of the clamped range is served — there is no
// terminal frame. An empty or past-EOF range is answered by one
// payload-less DATA frame with Args[DataArgIdx] == -1 and the object
// size.
const (
	// StreamArgSize / StreamArgStripeData index the stream geometry in
	// a head-entry SET's Args. Only stripe-0 SETs of streamed objects
	// carry them; their absence (nargs <= StreamArgSize) marks a
	// single-stripe object.
	StreamArgSize       = 9
	StreamArgStripeData = 10

	// TGet request args. A request with more than GetArgOff args is
	// ranged.
	GetArgAuthoritative = 0
	GetArgOff           = 1
	GetArgLen           = 2

	// DATA reply args, one frame per relayed chunk.
	DataArgIdx         = 0 // shard index within the stripe; -1 on an empty reply
	DataArgSize        = 1 // total object size
	DataArgShards      = 2 // d for the stripe
	DataArgTotal       = 3 // d+p for the stripe
	DataArgSum         = 4 // chunk checksum, or -1 when the stored chunk has none
	DataArgStripe      = 5 // stripe index
	DataArgStripeStart = 6 // object offset of the stripe's first byte
	DataArgStripeLen   = 7 // data bytes in the stripe
	DataArgs           = 8 // args per DATA frame
)

// stripeSep separates a parent key from its stripe suffix. The unit
// separator keeps stripe keys out of the way of ordinary key syntax
// while remaining a legal key byte on the wire.
const stripeSep = "\x1fs"

// StripeKey returns the mapping key for stripe s of parent. Stripe 0
// is the head and lives under the parent key itself.
func StripeKey(parent string, stripe int) string {
	if stripe == 0 {
		return parent
	}
	return parent + stripeSep + strconv.Itoa(stripe)
}

// ParseStripeKey splits a mapping key into its parent key and stripe
// index. Keys without a stripe suffix are stripe 0 of themselves.
func ParseStripeKey(key string) (parent string, stripe int) {
	i := strings.LastIndex(key, stripeSep)
	if i < 0 {
		return key, 0
	}
	n, err := strconv.Atoi(key[i+len(stripeSep):])
	if err != nil || n <= 0 {
		return key, 0
	}
	return key[:i], n
}

// ClampRange clamps the requested range [off, off+n) to [0, size),
// returning the clamped offset and length. Negative offsets eat into
// the length; negative lengths and ranges entirely past EOF clamp to
// empty. off and n come off the wire, so every int64 pair is valid
// input: no step can overflow.
func ClampRange(size, off, n int64) (int64, int64) {
	if n <= 0 {
		return min(max(off, 0), size), 0
	}
	if off < 0 {
		n += off // n > 0 > off: cannot overflow
		off = 0
	}
	off = min(off, size)
	return off, min(max(n, 0), size-off)
}

// StripeCount returns the number of stripes an object of size bytes
// occupies at stripeData data bytes per full stripe. Zero-byte objects
// still occupy one (empty) stripe.
func StripeCount(size, stripeData int64) int {
	if stripeData <= 0 || size <= 0 {
		return 1
	}
	return int((size + stripeData - 1) / stripeData)
}

// ShardSizeFor returns the data-shard size for a stripe holding
// stripeLen bytes across d data shards: ceil(stripeLen/d), matching
// the codec's zero-padded split.
func ShardSizeFor(stripeLen int64, d int) int64 {
	if d <= 0 {
		return 0
	}
	return (stripeLen + int64(d) - 1) / int64(d)
}

// ShardSpan returns the object byte range [start, end) covered by data
// shard idx of a stripe whose data bytes span
// [stripeStart, stripeStart+stripeLen). The final shard's span is
// clamped to the stripe (its zero padding covers no object bytes); a
// shard entirely inside the padding covers the empty range.
func ShardSpan(stripeStart, stripeLen int64, d, idx int) (start, end int64) {
	ss := ShardSizeFor(stripeLen, d)
	start = stripeStart + int64(idx)*ss
	end = start + ss
	if limit := stripeStart + stripeLen; end > limit {
		end = limit
	}
	if start > end {
		start = end
	}
	return start, end
}

// StripeSpan describes one stripe intersected by a planned read:
// which data shards to fetch and where the stripe's data bytes sit in
// the object.
type StripeSpan struct {
	Stripe int   // stripe index
	Start  int64 // object offset of the stripe's first data byte
	Len    int64 // data bytes in the stripe (== stripeData except possibly the last)
	Shards []int // intersecting data-shard indexes, ascending
}

// Whole reports whether the span covers its whole stripe — every data
// shard that holds object bytes — so that any d chunks of the stripe
// serve it.
func (sp StripeSpan) Whole(d int) bool {
	return len(sp.Shards) == int((sp.Len-1)/ShardSizeFor(sp.Len, d))+1
}

// SpanShards returns the data shards [first, last] of the stripe whose
// data bytes span [start, start+slen) that overlap the clamped range
// [off, off+n); ok is false when the stripe and the range are
// disjoint. Every shard in [first, last] holds object bytes: zero
// padding past the stripe's end is never planned.
func SpanShards(start, slen int64, d int, off, n int64) (first, last int, ok bool) {
	lo, hi := max(off, start), min(off+n, start+slen)
	if lo >= hi || d <= 0 {
		return 0, 0, false
	}
	ss := ShardSizeFor(slen, d)
	return int((lo - start) / ss), int((hi - 1 - start) / ss), true
}

// PlanRange maps the byte range [off, off+n) of an object onto the
// minimal set of data chunks that cover it: for each intersected
// stripe, exactly the data shards whose spans overlap the clamped
// range — never parity, never a full-d fan-out for a sub-stripe read.
// The range is clamped with ClampRange first; an empty result means an
// empty (or fully past-EOF) request.
func PlanRange(size, stripeData int64, d int, off, n int64) []StripeSpan {
	off, n = ClampRange(size, off, n)
	if n == 0 || d <= 0 || stripeData <= 0 {
		return nil
	}
	firstStart := off / stripeData * stripeData
	spans := make([]StripeSpan, 0, (off+n-firstStart+stripeData-1)/stripeData)
	for start := firstStart; start < off+n; start += stripeData {
		slen := min(stripeData, size-start)
		first, last, _ := SpanShards(start, slen, d, off, n)
		sp := StripeSpan{Stripe: int(start / stripeData), Start: start, Len: slen, Shards: make([]int, 0, last-first+1)}
		for i := first; i <= last; i++ {
			sp.Shards = append(sp.Shards, i)
		}
		spans = append(spans, sp)
	}
	return spans
}
