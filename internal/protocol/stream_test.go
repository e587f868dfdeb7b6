package protocol

import (
	"math"
	"testing"
)

func TestStripeKeyRoundTrip(t *testing.T) {
	cases := []struct {
		parent string
		stripe int
	}{
		{"foo", 0}, {"foo", 1}, {"foo", 17}, {"a#3", 2}, {"", 0},
		{"k\x1fsneaky", 0}, // \x1f in a user key without a numeric suffix
	}
	for _, c := range cases {
		k := StripeKey(c.parent, c.stripe)
		if c.stripe == 0 && k != c.parent {
			t.Fatalf("StripeKey(%q, 0) = %q, want parent unchanged", c.parent, k)
		}
		p, s := ParseStripeKey(k)
		if p != c.parent || s != c.stripe {
			t.Fatalf("ParseStripeKey(%q) = (%q, %d), want (%q, %d)", k, p, s, c.parent, c.stripe)
		}
	}
	// A non-stripe key parses as stripe 0 of itself.
	if p, s := ParseStripeKey("plain"); p != "plain" || s != 0 {
		t.Fatalf("ParseStripeKey(plain) = (%q, %d)", p, s)
	}
}

func TestClampRange(t *testing.T) {
	cases := []struct{ size, off, n, wantOff, wantN int64 }{
		{100, 0, 100, 0, 100},
		{100, 10, 20, 10, 20},
		{100, 90, 20, 90, 10},  // past EOF: clamped
		{100, 150, 10, 100, 0}, // entirely past EOF: empty
		{100, -5, 10, 0, 5},    // negative offset eats into length
		{100, 5, -1, 5, 0},     // negative length: empty
		{100, 0, 0, 0, 0},      // empty
		{0, 0, 10, 0, 0},       // empty object
		{100, -200, 10, 0, 0},  // deeply negative: empty
		{100, 100, 0, 100, 0},  // at EOF: empty
		// Wire-supplied extremes must not overflow.
		{100, 5, math.MaxInt64, 5, 95},     // to EOF, however long
		{100, -5, math.MinInt64 + 2, 0, 0}, // negative length: empty
		{100, math.MinInt64, math.MaxInt64, 0, 0},
		{100, math.MaxInt64, math.MaxInt64, 100, 0},
		{100, math.MinInt64, 10, 0, 0},
	}
	for _, c := range cases {
		off, n := ClampRange(c.size, c.off, c.n)
		if off != c.wantOff || n != c.wantN {
			t.Fatalf("ClampRange(%d, %d, %d) = (%d, %d), want (%d, %d)",
				c.size, c.off, c.n, off, n, c.wantOff, c.wantN)
		}
	}
}

// checkPlan asserts the planner's core invariants for one input: every
// byte of the clamped range is covered by exactly one planned chunk,
// every planned chunk overlaps the range (no dead fetches), shard
// indexes are data shards only, and the chunk count is the exact
// minimum the tentpole pins (a 1 MiB read touches ~range/shard
// chunks, never d per stripe).
func checkPlan(t *testing.T, size, stripeData int64, d int, off, n int64) {
	t.Helper()
	spans := PlanRange(size, stripeData, d, off, n)
	coff, cn := ClampRange(size, off, n)
	if cn == 0 {
		if spans != nil {
			t.Fatalf("PlanRange(%d,%d,%d,%d,%d): want nil for empty range, got %v",
				size, stripeData, d, off, n, spans)
		}
		return
	}
	covered := make([]int, cn)
	chunks := 0
	for _, sp := range spans {
		if sp.Stripe < 0 || sp.Start != int64(sp.Stripe)*stripeData {
			t.Fatalf("span %+v: bad stripe start", sp)
		}
		if sp.Len <= 0 || sp.Start+sp.Len > size {
			t.Fatalf("span %+v: bad stripe len (size %d)", sp, size)
		}
		for _, idx := range sp.Shards {
			if idx < 0 || idx >= d {
				t.Fatalf("span %+v: shard index %d outside data shards [0,%d)", sp, idx, d)
			}
			cs, ce := ShardSpan(sp.Start, sp.Len, d, idx)
			if cs >= ce {
				t.Fatalf("span %+v: empty shard %d planned", sp, idx)
			}
			if ce <= coff || cs >= coff+cn {
				t.Fatalf("span %+v shard %d [%d,%d): no overlap with clamped range [%d,%d)",
					sp, idx, cs, ce, coff, coff+cn)
			}
			for b := max64(cs, coff); b < min64(ce, coff+cn); b++ {
				covered[b-coff]++
			}
			chunks++
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("PlanRange(%d,%d,%d,%d,%d): byte %d covered %d times",
				size, stripeData, d, off, n, coff+int64(i), c)
		}
	}
	// Minimality: within each intersected stripe the planner must touch
	// exactly the data shards the clamped range overlaps — never parity,
	// never a full-d fan-out for a sub-stripe read. Counted per stripe
	// because the final (short) stripe has its own smaller shard size,
	// and a range straddling a stripe boundary can legitimately cross a
	// shard boundary on both sides of it.
	wantChunks := 0
	for s := coff / stripeData; ; s++ {
		start := s * stripeData
		if start >= coff+cn {
			break
		}
		slen := min64(stripeData, size-start)
		ss := ShardSizeFor(slen, d)
		lo := max64(coff, start) - start
		hi := min64(coff+cn, start+slen) - start
		if lo >= hi {
			break
		}
		wantChunks += int((hi-1)/ss) - int(lo/ss) + 1
	}
	if chunks != wantChunks {
		t.Fatalf("PlanRange(%d,%d,%d,%d,%d): planned %d chunks, minimal is %d",
			size, stripeData, d, off, n, chunks, wantChunks)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func TestPlanRangeGeometry(t *testing.T) {
	// Hand-picked edges: mid-shard start, stripe-boundary span, final
	// partial stripe, empty, past-EOF.
	type tc struct {
		size, stripeData int64
		d                int
		off, n           int64
	}
	cases := []tc{
		{64 << 10, 8 << 10, 4, 3000, 100},      // mid-shard
		{64 << 10, 8 << 10, 4, 8<<10 - 5, 10},  // spans stripe boundary
		{60 << 10, 8 << 10, 4, 56 << 10, 9999}, // final partial stripe + clamp
		{64 << 10, 8 << 10, 4, 0, 0},           // empty
		{64 << 10, 8 << 10, 4, 1 << 20, 5},     // past EOF
		{1, 8 << 10, 10, 0, 1},                 // 1-byte object
		{10, 40, 4, 0, 10},                     // shards round up past data
		{100, 100, 10, 95, 10},                 // tail of single stripe
	}
	for _, c := range cases {
		checkPlan(t, c.size, c.stripeData, c.d, c.off, c.n)
	}
	// The tentpole's headline invariant: a small read of a huge object
	// touches ceil(range/shard) chunks, not d.
	spans := PlanRange(1<<30, 10<<20, 10, 512<<20, 1<<20)
	chunks := 0
	for _, sp := range spans {
		chunks += len(sp.Shards)
	}
	if chunks > 2 {
		t.Fatalf("1 MiB read of 1 GiB object planned %d chunks, want <= 2", chunks)
	}
}

func FuzzRangePlan(f *testing.F) {
	f.Add(int64(64<<10), int64(8<<10), 4, int64(100), int64(4096))
	f.Add(int64(1<<20), int64(64<<10), 10, int64(0), int64(1<<20))
	f.Add(int64(12345), int64(4096), 3, int64(4000), int64(200))
	f.Add(int64(1), int64(1024), 2, int64(0), int64(1))
	f.Add(int64(100), int64(10), 4, int64(95), int64(50))
	f.Add(int64(100), int64(10), 4, int64(5), int64(math.MaxInt64))
	f.Add(int64(100), int64(10), 4, int64(-5), int64(math.MinInt64+2))
	f.Fuzz(func(t *testing.T, size, stripeData int64, d int, off, n int64) {
		// Bound the geometry: positive, and sizes small enough that the
		// per-byte coverage check stays cheap. off and n come off the
		// wire, so their domain is all of int64.
		if size < 0 || size > 1<<20 || stripeData <= 0 || stripeData > 1<<20 {
			t.Skip()
		}
		if d <= 0 || d > 64 {
			t.Skip()
		}
		checkPlan(t, size, stripeData, d, off, n)
	})
}
