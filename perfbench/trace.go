package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"infinicache/internal/ec"
	"infinicache/internal/gf256"
	"infinicache/internal/protocol"
)

// maxSpans caps the spans one tracer keeps in memory.
const maxSpans = 200000

// span is one timed interval of the traced run. Spans of one operation
// share its root id: the root (Parent 0) is the client call, and its
// children split it at the wire boundaries or cover the benchmark's own
// byte check.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
	Err    string `json:"err,omitempty"`
}

// tracer records the spans of one session's client. Its connections
// (made by dial) mark the last request write and the first response
// byte of the operation in flight; a closed-loop session has one
// operation in flight at a time, so the marks belong to it.
type tracer struct {
	base      time.Time
	ids       *atomic.Int64
	lastWrite atomic.Int64 // ns since base; 0 = no write yet
	firstRead atomic.Int64 // ns since base; 0 = no response byte yet
	spans     []span
	dropped   int
}

func newTracer(base time.Time, ids *atomic.Int64) *tracer {
	return &tracer{base: base, ids: ids}
}

func (t *tracer) now() int64 { return time.Since(t.base).Nanoseconds() }

// dial is the client's transport dialer: a TCP connection whose reads
// and writes feed the operation marks.
func (t *tracer) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, t: t}, nil
}

type timedConn struct {
	net.Conn
	t *tracer
}

func (c *timedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.t.firstRead.Load() == 0 {
		c.t.lastWrite.Store(c.t.now())
	}
	return n, err
}

func (c *timedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.t.lastWrite.Load() != 0 && c.t.firstRead.Load() == 0 {
		c.t.firstRead.CompareAndSwap(0, c.t.now())
	}
	return n, err
}

// begin opens an operation and returns its id (0 when untraced).
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	t.lastWrite.Store(0)
	t.firstRead.Store(0)
	return t.ids.Add(1)
}

func (t *tracer) add(s span) {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// end closes operation op: the root span covers the call, and when the
// marks fall inside it, three children split it into send (to the last
// request write), remote (to the first response byte) and recv (to the
// call's return).
func (t *tracer) end(op int64, kind opKind, t0 time.Time, lat time.Duration, n int, err error) {
	if t == nil {
		return
	}
	start := t0.Sub(t.base).Nanoseconds()
	stop := start + lat.Nanoseconds()
	root := span{ID: op, Name: "client." + kindNames[kind], Start: start, End: stop, Bytes: n}
	if err != nil {
		root.Err = err.Error()
	}
	t.add(root)
	w, r := t.lastWrite.Load(), t.firstRead.Load()
	if err != nil || w < start || r < w || r > stop {
		return
	}
	name := root.Name + "."
	t.add(span{ID: t.ids.Add(1), Parent: op, Name: name + "send", Start: start, End: w})
	t.add(span{ID: t.ids.Add(1), Parent: op, Name: name + "remote", Start: w, End: r})
	t.add(span{ID: t.ids.Add(1), Parent: op, Name: name + "recv", Start: r, End: stop})
}

// verified records the benchmark's byte check of operation op.
func (t *tracer) verified(op int64, from time.Time) {
	if t == nil {
		return
	}
	t.add(span{ID: t.ids.Add(1), Parent: op, Name: "bench.verify", Start: from.Sub(t.base).Nanoseconds(), End: t.now()})
}

// segmentMedians returns, per span name, the median duration in ms
// and the sample count.
func segmentMedians(spans []span) map[string]sample {
	by := make(map[string][]float64)
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(s.End-s.Start)/1e6)
	}
	out := make(map[string]sample, len(by))
	for name, v := range by {
		out[name] = sample{value: quantile(v, 0.5), n: len(v)}
	}
	return out
}

// writeSpans stores the spans as JSON under dir.
func writeSpans(dir, name string, spans []span, dropped int) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{dropped, spans}); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// The functions below time single layers from outside, through their
// public entry points, on the workload's own sizes.

// stripeSizes splits an object into the stripes the client encodes it
// as: one stripe up to stripeData bytes, then full stripes and a tail.
func stripeSizes(size, stripeData int) []int {
	var out []int
	for size > stripeData {
		out = append(out, stripeData)
		size -= stripeData
	}
	return append(out, size)
}

// stripeShards returns a random stripe of size bytes and its d+p
// shard buffers, sized by the codec.
func stripeShards(codec *ec.Codec, size int, rng *rand.Rand) ([]byte, [][]byte) {
	data := make([]byte, size)
	rng.Read(data)
	shards := make([][]byte, codec.TotalShards())
	for i := range shards {
		shards[i] = make([]byte, codec.ShardSize(size))
	}
	return data, shards
}

// timeEncode returns the mean time, in ms, to encode one object of the
// given sizes with Codec.EncodeInto, stripe by stripe.
func timeEncode(codec *ec.Codec, sizes []int, stripeData int) float64 {
	rng := rand.New(rand.NewSource(1))
	var total time.Duration
	for _, size := range sizes {
		for _, st := range stripeSizes(size, stripeData) {
			data, shards := stripeShards(codec, st, rng)
			// The first pass faults the fresh buffers in; the second,
			// timed, is the steady-state cost on recycled buffers.
			var t0 time.Time
			for pass := 0; pass < 2; pass++ {
				t0 = time.Now()
				if err := codec.EncodeInto(data, shards); err != nil {
					panic(err) // shards are sized by the codec
				}
			}
			total += time.Since(t0)
		}
	}
	return ms(total) / float64(len(sizes))
}

// timeReconstruct returns the mean time, in ms, for Codec.ReconstructData
// to rebuild an object of the given sizes with its first two data
// shards missing (the usual case: first-d arrivals of a (10+2) GET miss
// two data chunks 45 times in 66).
func timeReconstruct(codec *ec.Codec, sizes []int, stripeData int) float64 {
	rng := rand.New(rand.NewSource(2))
	var total time.Duration
	for _, size := range sizes {
		for _, st := range stripeSizes(size, stripeData) {
			data, shards := stripeShards(codec, st, rng)
			if err := codec.EncodeInto(data, shards); err != nil {
				panic(err) // shards are sized by the codec
			}
			shards[0], shards[1] = nil, nil
			t0 := time.Now()
			if err := codec.ReconstructData(shards); err != nil {
				panic(err) // ten of twelve shards are present
			}
			total += time.Since(t0)
		}
	}
	return ms(total) / float64(len(sizes))
}

// mulSourcesGBps times gf256.MulSources combining d sources of shard
// bytes into one output, and returns source GB processed per second.
func mulSourcesGBps(d, shard int) float64 {
	rng := rand.New(rand.NewSource(3))
	srcs := make([][]byte, d)
	coefs := make([]byte, d)
	for i := range srcs {
		srcs[i] = make([]byte, shard)
		rng.Read(srcs[i])
		coefs[i] = byte(1 + rng.Intn(255))
	}
	dst := make([]byte, shard)
	var iters int
	t0 := time.Now()
	for iters == 0 || time.Since(t0) < 200*time.Millisecond {
		gf256.MulSources(coefs, srcs, dst, 0, shard)
		iters++
	}
	return float64(d*shard*iters) / time.Since(t0).Seconds() / 1e9
}

// frameRTT returns the median round trip, in µs, of one DATA frame of
// payload bytes over a loopback protocol.Conn pair: Forward on one end,
// echoed by the peer, Recv back.
func frameRTT(payload int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		pc := protocol.NewConn(raw)
		defer pc.Close()
		for {
			m, err := pc.Recv()
			if err != nil {
				return
			}
			err = pc.Forward(m.Type, m.Seq, m.Key, "", nil, m.Payload)
			m.Free()
			if err != nil {
				return
			}
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	pc := protocol.NewConn(raw)
	buf := make([]byte, payload)
	var rtts []float64
	t0 := time.Now()
	for seq := uint64(1); seq <= 2000 && time.Since(t0) < 300*time.Millisecond; seq++ {
		s := time.Now()
		if err = pc.Forward(protocol.TData, seq, "rtt", "", nil, buf); err != nil {
			break
		}
		var m *protocol.Message
		if m, err = pc.Recv(); err != nil {
			break
		}
		rtts = append(rtts, float64(time.Since(s).Nanoseconds())/1e3)
		m.Free()
	}
	pc.Close()
	wg.Wait()
	if len(rtts) == 0 {
		return 0, err
	}
	return quantile(rtts, 0.5), nil
}

// sample is a measured value with the number of samples behind it.
type sample struct {
	value float64
	n     int
}

// quantile returns the q-quantile of v by nearest rank (v is sorted in
// place).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[max(0, min(i, len(v)-1))]
}
