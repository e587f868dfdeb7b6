// Package client implements the InfiniCache client library (§3.1): the
// application-facing API. It erasure-codes objects with a Reed-Solomon
// codec, balances requests over proxies with a consistent-hashing ring,
// chooses random non-repeating Lambda placements for chunks, decodes
// first-d responses, re-inserts reconstructed chunks (EC recovery), and
// RESETs lost objects from the backing store.
//
// The API is context-first and copy-light:
//
//   - GetObject returns a pooled *Object handle that owns the shard
//     buffers the read folded — no reassembly copy; stream it with
//     WriteTo/Read or copy once with Bytes, then Release it. GetObject,
//     GetRange and MGet share one read path: a whole object is the
//     range [0, size).
//   - PutCtx/GetCtx/DelCtx/GetOrLoadCtx take a context whose
//     cancellation or deadline propagates into every request wait; an
//     abandoned request sends CANCEL so the proxy releases its window
//     slots instead of serving a caller that left.
//   - MGet/MPut (batch.go) fan a key set out across the owning proxies
//     and ride each proxy connection as one pipelined burst.
package client

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"infinicache/internal/bufpool"
	"infinicache/internal/cluster"
	"infinicache/internal/ec"
	"infinicache/internal/protocol"
	"infinicache/internal/vclock"
)

// ProxyInfo describes one proxy a client can talk to.
type ProxyInfo struct {
	Addr     string
	PoolSize int // number of Lambda nodes behind that proxy
}

// Config parameterises a Client.
type Config struct {
	Proxies []ProxyInfo
	// DataShards (d) and ParityShards (p) select the RS(d+p) code.
	DataShards   int
	ParityShards int
	Clock        vclock.Clock
	// RequestTimeout bounds one GET or PUT operation (virtual time).
	RequestTimeout time.Duration
	// EnableRecovery re-encodes and re-inserts chunks the proxy reported
	// lost during a degraded GET.
	EnableRecovery bool
	Seed           int64
	// Dial overrides the transport dialer; nil means net.Dial("tcp", ·).
	// Tests use it to instrument the client's proxy connections (e.g.
	// counting write syscalls to pin flush coalescing).
	Dial func(addr string) (net.Conn, error)
	// StripeShard is the target data-shard size in bytes for streaming
	// PUTs (PutReader): each stripe carries StripeShard×DataShards data
	// bytes, so StripeShard bounds the payload of every chunk a stream
	// ships. Objects at or under one stripe are stored exactly as PutCtx
	// stores them. Default 1 MiB.
	StripeShard int64
}

func (c *Config) fillDefaults() {
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.StripeShard <= 0 {
		c.StripeShard = 1 << 20
	}
}

// Option adjusts a Config at construction time — the functional-options
// boundary the public API (infinicache.NewClient) exposes.
type Option func(*Config)

// WithRequestTimeout bounds each GET/PUT/DEL operation.
func WithRequestTimeout(d time.Duration) Option {
	return func(c *Config) { c.RequestTimeout = d }
}

// WithRecovery toggles client-side EC chunk recovery after degraded
// reads.
func WithRecovery(on bool) Option {
	return func(c *Config) { c.EnableRecovery = on }
}

// WithShards overrides the RS(d+p) code for this client.
func WithShards(data, parity int) Option {
	return func(c *Config) { c.DataShards, c.ParityShards = data, parity }
}

// WithSeed makes the client's chunk placement deterministic.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithStripeShard sets the target data-shard size for streaming PUTs
// (see Config.StripeShard). Tests shrink it to exercise many-stripe
// geometry with small objects.
func WithStripeShard(bytes int64) Option {
	return func(c *Config) { c.StripeShard = bytes }
}

// Stats counts client-side cache outcomes.
type Stats struct {
	Gets          atomic.Int64
	Hits          atomic.Int64
	ColdMisses    atomic.Int64 // key never inserted (or evicted)
	Losses        atomic.Int64 // object lost to reclamation (> p chunks)
	Resets        atomic.Int64 // loss-triggered re-inserts via GetOrLoad
	Puts          atomic.Int64
	Decodes       atomic.Int64 // GETs that needed EC reconstruction
	Recoveries    atomic.Int64 // chunks re-inserted by EC recovery
	Redirects     atomic.Int64 // WRONG_OWNER redirects followed
	RingRefreshes atomic.Int64 // newer epochs installed via RING fetch
	// ChecksumFailures counts DATA frames whose payload failed the
	// chunk-checksum verify (corruption in transit); each one was
	// retried, never returned to the caller.
	ChecksumFailures atomic.Int64
}

// Common errors.
var (
	ErrMiss     = errors.New("client: cache miss")
	ErrLost     = errors.New("client: object lost (reclaimed chunks exceed parity)")
	ErrTimeout  = errors.New("client: request timed out")
	ErrRejected = errors.New("client: proxy rejected request")
)

// Client is the InfiniCache client library handle. Safe for concurrent
// use by multiple goroutines.
type Client struct {
	cfg   Config
	codec *ec.Codec

	// epoch is the client's current view of the proxy membership ring.
	// It starts as a version-0 snapshot of Config.Proxies and advances
	// lazily: a WRONG_OWNER redirect names a newer version, refreshRing
	// fetches it (RING frame) and installs it monotonically. Lock-free
	// on the request path.
	epoch atomic.Pointer[cluster.Epoch]
	// refreshMu serialises ring fetches so a redirect storm coalesces
	// into one RING round trip.
	refreshMu sync.Mutex

	// recovery single-flights degraded-GET repair per (key, ring
	// version): concurrent readers of the same degraded object coalesce
	// onto one reconstruction instead of racing duplicate chunk SETs.
	recovery *cluster.Plane

	mu    sync.Mutex
	conns map[string]*proxyConn
	rng   *rand.Rand
	perms map[int][]int // per-pool-size scratch permutation (placement)

	seq    atomic.Uint64
	putGen atomic.Int64

	stats Stats
}

// New creates a client from cfg, with opts applied on top.
func New(cfg Config, opts ...Option) (*Client, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.fillDefaults()
	if len(cfg.Proxies) == 0 {
		return nil, errors.New("client: need at least one proxy")
	}
	codec, err := ec.New(cfg.DataShards, cfg.ParityShards)
	if err != nil {
		return nil, err
	}
	total := cfg.DataShards + cfg.ParityShards
	members := make([]cluster.Member, 0, len(cfg.Proxies))
	for _, p := range cfg.Proxies {
		if p.PoolSize < total {
			return nil, fmt.Errorf("client: proxy %s pool %d smaller than d+p=%d", p.Addr, p.PoolSize, total)
		}
		members = append(members, cluster.Member{Addr: p.Addr, PoolSize: p.PoolSize})
	}
	c := &Client{
		cfg:      cfg,
		codec:    codec,
		recovery: cluster.NewPlane(0),
		conns:    make(map[string]*proxyConn),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		perms:    make(map[int][]int),
	}
	// Version 0: any published epoch (versions start at 1) supersedes
	// the static bootstrap list.
	c.epoch.Store(cluster.NewEpoch(0, members))
	return c, nil
}

// Stats returns the client's counters.
func (c *Client) Stats() *Stats { return &c.stats }

// WireStats sums the wire-plane counters (frames, socket flushes,
// vectored writes) across the client's open proxy connections. The
// flushes/frames ratio is the write-coalescing factor: 1.0 means one
// syscall per frame, a pipelined burst drives it toward 1/(d+p).
func (c *Client) WireStats() protocol.ConnStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out protocol.ConnStats
	for _, pc := range c.conns {
		out.Add(pc.conn.Stats())
	}
	return out
}

// Codec exposes the client's erasure codec (examples and tests use it).
func (c *Client) Codec() *ec.Codec { return c.codec }

// Close tears down all proxy connections.
func (c *Client) Close() error {
	c.mu.Lock()
	conns := c.conns
	c.conns = make(map[string]*proxyConn)
	c.mu.Unlock()
	for _, pc := range conns {
		pc.close()
	}
	return nil
}

// proxyFor locates the proxy owning key under the client's current
// epoch view (lock-free ring walk plus one map lookup).
func (c *Client) proxyFor(key string) (ProxyInfo, error) {
	e := c.epoch.Load()
	addr := e.Owner(key)
	if m, ok := e.Member(addr); ok {
		return ProxyInfo{Addr: m.Addr, PoolSize: m.PoolSize}, nil
	}
	return ProxyInfo{}, fmt.Errorf("client: no proxy for key %q", key)
}

// proxyInfo resolves addr against the current epoch view; an address
// outside the view (a fallback target already retired from the ring)
// comes back with PoolSize 0 — readable, but no placement possible.
func (c *Client) proxyInfo(addr string) ProxyInfo {
	if m, ok := c.epoch.Load().Member(addr); ok {
		return ProxyInfo{Addr: m.Addr, PoolSize: m.PoolSize}
	}
	return ProxyInfo{Addr: addr}
}

// wrongOwnerError carries a WRONG_OWNER redirect: the proxy the client
// asked does not own the key under epoch version; owner does. fallback
// flags the migration-window variant — the new owner had a local miss
// and points the client back at the previous owner, which must be asked
// authoritatively (no ownership re-check there).
type wrongOwnerError struct {
	version  uint64
	owner    string
	fallback bool
}

func (e *wrongOwnerError) Error() string {
	kind := "redirect"
	if e.fallback {
		kind = "fallback"
	}
	return fmt.Sprintf("client: wrong owner (%s to %s, epoch v%d)", kind, e.owner, e.version)
}

// redirectBudget bounds how many WRONG_OWNER hops one logical operation
// follows before giving up. Steady state needs zero (client and proxy
// rings agree); an epoch bump costs one refresh plus one retry.
const redirectBudget = 8

// refreshRing fetches the current membership epoch with a RING frame
// and installs it if newer than the client's view. hint (the redirecting
// proxy or the named owner — it provably has the new epoch) is tried
// first, then every member of the current view. Serialised so a
// redirect storm coalesces; callers race ahead on the freshly installed
// view either way.
func (c *Client) refreshRing(ctx context.Context, hint string) error {
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	cur := c.epoch.Load()
	cands := make([]string, 0, len(cur.Members())+1)
	if hint != "" {
		cands = append(cands, hint)
	}
	for _, m := range cur.Members() {
		if m.Addr != hint {
			cands = append(cands, m.Addr)
		}
	}
	err := errors.New("client: no ring source reachable")
	for _, addr := range cands {
		var e *cluster.Epoch
		e, err = c.fetchRing(ctx, addr)
		if err != nil {
			continue
		}
		if e != nil && e.Version() > cur.Version() {
			c.epoch.Store(e)
			c.stats.RingRefreshes.Add(1)
		}
		return nil
	}
	return err
}

// fetchRing asks one proxy for its epoch. A nil epoch with nil error
// means the proxy runs without membership (legacy static ring).
func (c *Client) fetchRing(ctx context.Context, addr string) (*cluster.Epoch, error) {
	pc, err := c.conn(addr)
	if err != nil {
		return nil, err
	}
	seq := c.seq.Add(1)
	ch := pc.register(seq, 2)
	defer pc.release(seq, ch)
	if err := pc.conn.Forward(protocol.TRing, seq, "", "", nil, nil); err != nil {
		return nil, connErr("ring fetch", err)
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, errConnClosed
		}
		defer resp.Free()
		if resp.Type != protocol.TRing || len(resp.Payload) == 0 {
			return nil, nil
		}
		return cluster.DecodeEpoch(resp.Payload)
	case <-ctx.Done():
		pc.cancel(seq)
		return nil, ctx.Err()
	case <-c.cfg.Clock.After(c.cfg.RequestTimeout):
		pc.cancel(seq)
		return nil, ErrTimeout
	}
}

// placement draws a vector of n non-repeating Lambda indexes (IDλ,
// §3.1) with a partial Fisher–Yates shuffle over a persistent
// per-pool-size scratch permutation: O(n) steps and only the result
// slice allocated, where the previous implementation drew a full
// rng.Perm(poolSize) under the mutex for every operation. The scratch
// remains a permutation of 0..poolSize-1 across calls, and a partial
// Fisher–Yates from any starting permutation draws uniformly, so the
// distribution is unchanged.
func (c *Client) placement(poolSize, n int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	perm := c.perms[poolSize]
	if perm == nil {
		perm = make([]int, poolSize)
		for i := range perm {
			perm[i] = i
		}
		c.perms[poolSize] = perm
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		j := i + c.rng.Intn(poolSize-i)
		perm[i], perm[j] = perm[j], perm[i]
		out[i] = perm[i]
	}
	return out
}

// PutCtx erasure-codes value and stores its chunks across the pool
// behind the key's proxy, overwriting any previous version atomically
// from this client's perspective (waiting for every chunk
// acknowledgement). Cancelling ctx abandons the operation: unacked
// chunk SETs are CANCELled at the proxy and ctx.Err() is returned.
func (c *Client) PutCtx(ctx context.Context, key string, value []byte) error {
	if len(value) == 0 {
		return errors.New("client: empty value")
	}
	c.stats.Puts.Add(1)
	return c.putObject(ctx, key, value)
}

// putObject routes one whole-object PUT through the ring.
func (c *Client) putObject(ctx context.Context, key string, value []byte) error {
	return c.putValue(ctx, key, key, value, nil)
}

// putValue routes one PUT through the ring, following WRONG_OWNER
// redirects: a stale-ring write is refused by the proxy (the whole
// generation fails, nothing partial lingers), the client refreshes its
// epoch view and retries at the owner with a fresh placement and
// generation. routeKey picks the owning proxy while entryKey names the
// mapping entry written — they differ only on the streaming path, where
// a stripe entry must land on its parent object's owner so the whole
// family lives (and dies) together. extra args (the head stripe's
// stream geometry) are appended to every SET frame of the generation.
func (c *Client) putValue(ctx context.Context, routeKey, entryKey string, value []byte, extra []int64) error {
	var lastErr error
	backoff := busyWriteBackoff
	transients := 0
	for hop := 0; hop <= redirectBudget; hop++ {
		info, err := c.proxyFor(routeKey)
		if err != nil {
			return err
		}
		err = c.putOnce(ctx, info, entryKey, value, extra)
		var wo *wrongOwnerError
		switch {
		case errors.As(err, &wo):
			c.stats.Redirects.Add(1)
			lastErr = err
			c.refreshRing(ctx, wo.owner)
		case errors.Is(err, errConnClosed):
			// The owner is unreachable — it likely left the cluster.
			// Learn the epoch that retired it and re-route.
			lastErr = err
			c.refreshRing(ctx, "")
		case errors.Is(err, errBusyWrite), errors.Is(err, errTransient):
			// A transient generation failure (node timeout, garbled
			// frame, racing overwrite): retry with a fresh placement and
			// generation, budgeted separately from redirect hops.
			transients++
			if transients > getRetries {
				return fmt.Errorf("%w (after %d attempts): %v", ErrRejected, transients, err)
			}
			lastErr = err
			hop--
			if errors.Is(err, errBusyWrite) {
				select {
				case <-c.cfg.Clock.After(backoff):
					backoff *= 2
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		default:
			return err
		}
	}
	return fmt.Errorf("%w: redirect loop: %v", ErrRejected, lastErr)
}

// putOnce encodes value and pipelines its chunks to one proxy.
func (c *Client) putOnce(ctx context.Context, info ProxyInfo, key string, value []byte, extra []int64) error {
	pc, err := c.conn(info.Addr)
	if err != nil {
		return err
	}
	// Shard buffers come from (and return to) the pool: putChunks sends
	// synchronously, so nothing references them once it returns.
	total := c.codec.TotalShards()
	shardSize := c.codec.ShardSize(len(value))
	shards := make([][]byte, total)
	for i := range shards {
		shards[i] = bufpool.Get(shardSize)
	}
	defer bufpool.PutAll(shards)
	if err := c.codec.SplitInto(value, shards); err != nil {
		return err
	}
	if err := c.codec.Encode(shards); err != nil {
		return err
	}
	nodes := c.placement(info.PoolSize, total)
	gen := c.putGen.Add(1)

	return c.putChunks(ctx, pc, key, int64(len(value)), shards, nodes, gen, false, extra)
}

// putChunks pipelines a set of chunks down the proxy connection's
// single writer — every SET frame is written back to back, then the
// acknowledgements are collected off one shared response channel — with
// no goroutine per shard and no Message allocation per chunk (the
// header is assembled directly by Conn.Forward around the pooled shard
// buffer). Indexes of shards that are nil are skipped (recovery path
// re-inserts a sparse subset).
func (c *Client) putChunks(ctx context.Context, pc *proxyConn, key string, objSize int64, shards [][]byte, nodes []int, gen int64, recovery bool, extra []int64) error {
	deadline := c.cfg.Clock.Now().Add(c.cfg.RequestTimeout)
	rec := int64(0)
	if recovery {
		rec = 1
	}
	inflight := 0
	for _, s := range shards {
		if s != nil {
			inflight++
		}
	}
	if inflight == 0 {
		return nil
	}
	// One ACK (or ERR) per chunk lands here; +1 slack for a stale frame.
	ch := make(chan *protocol.Message, inflight+1)
	seqIdx := make(map[uint64]int, inflight)
	defer func() {
		for seq := range seqIdx {
			pc.deregister(seq)
		}
		pc.drain(ch)
	}()

	// The whole shard burst rides one Pin window: every SET frame is
	// staged back to back and the closing Flush puts the burst on the
	// wire in O(1) syscalls (large shards vector out as they stage).
	// The Flush must land before collectAcks blocks — an unflushed SET
	// would wait forever for its own ACK.
	var firstErr error
	var woErr *wrongOwnerError
	var transientErr error
	// Fixed-size scratch keeps the hot path allocation-free; extra is at
	// most the two stream-geometry args a head stripe carries.
	var args [11]int64
	nargs := 9 + len(extra)
	if nargs > len(args) {
		return fmt.Errorf("client: %d extra put args exceed frame scratch", len(extra))
	}
	pc.conn.Pin()
	for i, shard := range shards {
		if shard == nil {
			continue
		}
		seq := c.seq.Add(1)
		if !pc.registerWith(seq, ch) {
			pc.conn.Flush()
			return errConnClosed
		}
		seqIdx[seq] = i
		// Args[7] (migration flag) stays 0 on the client path; the chunk
		// checksum rides Args[protocol.ChecksumArgSet] so the proxy can
		// verify the payload — and the (key, idx) routing the sum is
		// bound to — survived the wire before committing it.
		args = [11]int64{
			int64(i), int64(len(shards)), int64(nodes[i]),
			objSize, int64(c.codec.DataShards()), gen, rec,
			0, protocol.ChunkSum(key, i, shard),
		}
		copy(args[9:], extra)
		if err := pc.conn.Forward(protocol.TSet, seq, key, "", args[:nargs], shard); err != nil {
			// The writer is dead; nothing later in the pipeline can land.
			pc.conn.Flush()
			return connErr(fmt.Sprintf("put chunk %d", i), err)
		}
	}
	if err := pc.conn.Flush(); err != nil {
		return connErr("put flush", err)
	}

	// Acked seqs are deregistered as they land, so on an abandon seqIdx
	// names exactly the chunks still in flight — the ones collectAcks
	// CANCELs at the proxy before giving up.
	err := collectAcks(c, ctx, pc, ch, seqIdx, deadline, func(idx int, resp *protocol.Message) {
		switch {
		case resp.Type == protocol.TWrongOwner:
			if woErr == nil {
				woErr = &wrongOwnerError{version: uint64(resp.Arg(0)), owner: resp.Addr}
			}
		case resp.Type == protocol.TErr && resp.Arg(0) == protocol.TransientFlag:
			// The proxy failed this generation for a transient reason (a
			// node timeout, a backup swap, a frame that arrived garbled) —
			// a retry with a fresh placement usually lands, so it must
			// not burn the op as ErrRejected.
			if transientErr == nil {
				if resp.Arg(1) == protocol.TransientBusyWrite {
					transientErr = errBusyWrite
				} else {
					transientErr = errTransient
				}
			}
		case resp.Type != protocol.TAck && firstErr == nil:
			firstErr = fmt.Errorf("chunk %d: %w: %s", idx, ErrRejected, resp.Payload)
		}
	})
	switch {
	case err == nil:
	case errors.Is(err, ErrTimeout) || errors.Is(err, errConnClosed):
		if firstErr == nil {
			firstErr = err
		}
	default:
		return err // context cancellation wins over per-chunk errors
	}
	// A redirect outranks per-chunk noise: the proxy failed the whole
	// generation, so the caller's right move is refresh-and-retry, not
	// surfacing a chunk error.
	if woErr != nil {
		return woErr
	}
	if firstErr != nil {
		return firstErr
	}
	return transientErr
}

// collectAcks collects exactly one response per seq in seqIdx off the
// shared channel, deregistering each as it lands and routing it to
// record (called before the frame is recycled). It returns nil once
// every seq is answered; on timeout or ctx cancellation the seqs still
// pending are CANCELled at the proxy and ErrTimeout / ctx.Err()
// returned; a closed channel returns errConnClosed. Whatever remains
// in seqIdx afterwards is exactly the unanswered set. This is the one
// ack-collection loop both the single-key PUT and the MPut burst ride.
func collectAcks[T any](c *Client, ctx context.Context, pc *proxyConn, ch chan *protocol.Message, seqIdx map[uint64]T, deadline time.Time, record func(tag T, resp *protocol.Message)) error {
	abandon := func() {
		for seq := range seqIdx {
			pc.cancel(seq)
		}
	}
	if len(seqIdx) == 0 {
		return nil
	}
	remain := deadline.Sub(c.cfg.Clock.Now())
	if remain <= 0 {
		abandon()
		return ErrTimeout
	}
	// The deadline is fixed, so one timer covers the whole wait — the
	// previous per-iteration Clock.After allocated (and, on the real
	// clock, leaked until expiry) a timer per received frame.
	timeout := c.cfg.Clock.After(remain)
	for len(seqIdx) > 0 {
		select {
		case resp, ok := <-ch:
			if !ok {
				if ch = pc.successor(ch); ch != nil {
					continue
				}
				return errConnClosed
			}
			tag, mine := seqIdx[resp.Seq]
			if !mine {
				resp.Free() // stale frame from an abandoned request
				continue
			}
			delete(seqIdx, resp.Seq)
			pc.deregister(resp.Seq)
			record(tag, resp)
			resp.Free()
		case <-ctx.Done():
			abandon()
			return ctx.Err()
		case <-timeout:
			abandon()
			return ErrTimeout
		}
	}
	return nil
}

// errTransient marks proxy-reported conditions worth retrying at once
// (chunk timeouts during backup connection swaps).
var errTransient = errors.New("client: transient proxy failure")

// errBusyWrite marks the epoch-guard transient: the object is
// mid-overwrite and stays unreadable until the in-flight PUT
// generation commits. Retrying immediately just burns the retry budget
// inside the same write window, so GetObject backs off first.
var errBusyWrite = errors.New("client: object write in progress")

// errConnClosed reports a proxy connection that died mid-operation.
var errConnClosed = errors.New("client: connection closed")

// getRetries is how many times a GET retries a transient failure.
const getRetries = 3

// busyWriteBackoff is the base delay before retrying a busy-write
// transient; it doubles per consecutive busy-write attempt (2, 4 ms),
// sized so a typical in-flight PUT window (an RTT plus d+p chunk acks)
// has closed by the retry.
const busyWriteBackoff = 2 * time.Millisecond

// GetObject fetches an object as a zero-copy *Object handle: the
// pooled shard buffers — one shard set per stripe — are handed to the
// caller without the reassembly copy. The caller must Release the
// handle (after Bytes, WriteTo or Read) to recycle the buffers. ErrMiss
// means the key is not cached; ErrLost means it was cached but
// reclamation destroyed more than p chunks of a stripe (RESET it from
// the backing store). Transient proxy failures (e.g. chunk timeouts
// during a backup connection swap) are retried internally; ctx
// cancellation aborts the wait and CANCELs the in-flight request at the
// proxy.
func (c *Client) GetObject(ctx context.Context, key string) (*Object, error) {
	c.stats.Gets.Add(1)
	return c.getWithRetries(ctx, key, wholeObject, nil)
}

// readSpan is what one read asks for: the byte range [off, off+n) of
// the object. A whole-object read is the range [0, MaxInt64), which the
// object's size clamps to [0, size); only a ranged read carries its
// span on the wire.
type readSpan struct {
	off, n int64
	ranged bool
}

var wholeObject = readSpan{n: math.MaxInt64}

// getWithRetries is the one read state machine every read rides —
// GetObject, GetRange, and the MGet keys the burst could not serve:
// transient retries, busy-write backoff, and the membership redirect
// protocol. A WRONG_OWNER reply refreshes the ring view and retries
// through it; a fallback redirect (migration window: the new owner
// misses locally) asks the previous owner authoritatively, whose
// answer — data or miss — is final. Redirect hops are budgeted
// separately from transient retries so an epoch bump does not eat the
// failure budget. A non-nil err is the outcome of an attempt the caller
// already made (an MGet burst), which counts against the budget.
func (c *Client) getWithRetries(ctx context.Context, key string, span readSpan, err error) (*Object, error) {
	var obj *Object
	backoff := busyWriteBackoff
	attempt, redirects := 0, 0
	direct := "" // when set, ask this proxy instead of routing by ring
	authoritative := false
	fallbackMissRetried := false
	if err == nil {
		obj, err = c.getFrom(ctx, key, direct, authoritative, span)
	}
	for {
		var wo *wrongOwnerError
		switch {
		case authoritative && errors.Is(err, ErrMiss) && !fallbackMissRetried:
			// A fallback miss can race the handoff completing: the
			// source streamed the key and dropped its copy between
			// issuing the redirect and this GET landing. One pass back
			// through the ring settles it — the new owner either holds
			// the key now or the miss is genuine (a second fallback hop
			// would find it at the source).
			fallbackMissRetried = true
			direct, authoritative = "", false
		case errors.As(err, &wo):
			redirects++
			if redirects > redirectBudget {
				return nil, fmt.Errorf("%w: redirect loop (%d hops): %v", ErrRejected, redirects, err)
			}
			c.stats.Redirects.Add(1)
			if wo.fallback {
				// The owner is still waiting on the migration stream;
				// chase the key to its previous owner directly.
				direct, authoritative = wo.owner, true
			} else {
				// Plain redirect: learn the new ring, then route through it.
				c.refreshRing(ctx, wo.owner)
				direct, authoritative = "", false
			}
		case errors.Is(err, errBusyWrite):
			// Adaptive overwrite-retry: the proxy said a PUT generation
			// is mid-commit. Wait the window out (doubling per repeat)
			// instead of re-asking inside it — an immediate retry would
			// spend the whole budget on the same unreadable window.
			select {
			case <-c.cfg.Clock.After(backoff):
				backoff *= 2
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			attempt++
		case errors.Is(err, errTransient):
			// Node-side transient (timeout, backup swap): the fan-out
			// path usually heals immediately; retry at once.
			attempt++
		case errors.Is(err, errConnClosed):
			// The proxy likely left the cluster; pick up the epoch that
			// retired it and retry through the fresh ring.
			c.refreshRing(ctx, "")
			direct, authoritative = "", false
			attempt++
		default:
			if errors.Is(err, ErrMiss) {
				c.stats.ColdMisses.Add(1)
			}
			return obj, err
		}
		if attempt >= getRetries {
			return nil, fmt.Errorf("%w (after %d attempts): %v", ErrRejected, getRetries, err)
		}
		obj, err = c.getFrom(ctx, key, direct, authoritative, span)
	}
}

// GetCtx fetches and reassembles an object into a fresh contiguous
// buffer (GetObject + Bytes + Release). Prefer GetObject on hot paths.
func (c *Client) GetCtx(ctx context.Context, key string) ([]byte, error) {
	obj, err := c.GetObject(ctx, key)
	if err != nil {
		return nil, err
	}
	data := obj.Bytes()
	obj.Release()
	return data, nil
}

// fold accumulates one read's reply frames into an Object, one shard
// set per stripe. It is the one frame folder of the read path: single
// key or MGet, whole object or range.
type fold struct {
	obj *Object
	// size and stripeData (data bytes per full stripe) are learned from
	// the first frame; every later frame must agree, so a garbled
	// geometry arg fails the read instead of misplacing bytes.
	size, stripeData int64
	left             int64 // bytes of the clamped span not yet served; -1 until the first frame sizes it
}

func newFold() fold { return fold{obj: &Object{valid: true}, left: -1} }

// applyFrame advances a fold with one inbound frame. done reports the
// read finished: with err (miss/loss/transient/rejected/decode — the
// caller releases the partial object), or with f.obj complete (every
// stripe of the span served, Hit counted) and ownership ready to hand
// to the caller.
func (c *Client) applyFrame(f *fold, key string, span readSpan, msg *protocol.Message) (done bool, err error) {
	// Key echo check: every proxy reply carries the key of the command
	// it answers. A mismatch means the command's key field was garbled
	// in transit (the proxy looked up — or missed — some other key) or
	// the reply's was; either way the frame proves nothing about our
	// key, so treat it as a transient failure and retry.
	if msg.Key != "" && msg.Key != key {
		msg.Free()
		c.stats.ChecksumFailures.Add(1)
		return true, fmt.Errorf("%w: reply key mismatch", errTransient)
	}
	switch msg.Type {
	case protocol.TData:
		done, err = c.foldChunk(f, key, span, msg)
		msg.Free()
		return done, err
	case protocol.TMiss:
		loss := msg.Arg(0) == 1
		msg.Free()
		if loss {
			c.stats.Losses.Add(1)
			return true, ErrLost
		}
		// Not counted here: a miss at the frame level may be provisional
		// (the fallback-race retry in getWithRetries can still turn it
		// into a hit). ColdMisses is counted where ErrMiss becomes final.
		return true, ErrMiss
	case protocol.TWrongOwner:
		wo := &wrongOwnerError{
			version:  uint64(msg.Arg(0)),
			owner:    msg.Addr,
			fallback: msg.Arg(1) == 1,
		}
		msg.Free()
		return true, wo
	case protocol.TErr:
		if msg.Arg(0) == protocol.TransientFlag {
			busy := msg.Arg(1) == protocol.TransientBusyWrite
			msg.Free()
			if busy {
				return true, errBusyWrite
			}
			return true, errTransient
		}
		err = fmt.Errorf("%w: %s", ErrRejected, msg.Payload)
		msg.Free()
		return true, err
	default:
		msg.Free()
		return false, nil
	}
}

// foldChunk folds one DATA frame (protocol.DataArg* layout) into its
// stripe's shard set. A stripe is served once it holds every data shard
// the span needs of it, or any d distinct shards — then the missing
// data shards are reconstructed in place (first-d trade-off, §3.2),
// with no join copy. The read is done when every byte of the clamped
// span sits in a served stripe. The payload's ownership moves to the
// Object; the caller frees the frame.
func (c *Client) foldChunk(f *fold, key string, span readSpan, msg *protocol.Message) (bool, error) {
	o := f.obj
	size := msg.Arg(protocol.DataArgSize)
	if f.left < 0 {
		f.size = size
		o.base, o.size = protocol.ClampRange(size, span.off, span.n)
		o.d = c.codec.DataShards()
		f.left = o.size
	}
	idx := int(msg.Arg(protocol.DataArgIdx))
	if idx < 0 {
		// The proxy's answer for an empty or past-EOF span.
		if f.left != 0 {
			return true, fmt.Errorf("%w: empty reply to a %d-byte read", errTransient, f.left)
		}
		c.stats.Hits.Add(1)
		return true, nil
	}
	// Every DATA frame carries the object's true RS geometry; a client
	// whose codec disagrees (e.g. a per-client WithShards override
	// against a differently-coded deployment) must fail loudly here —
	// decoding with the wrong code returns garbage bytes with no error.
	d, total := int(msg.Arg(protocol.DataArgShards)), int(msg.Arg(protocol.DataArgTotal))
	if cd, ct := c.codec.DataShards(), c.codec.TotalShards(); d != cd || total != ct {
		return true, fmt.Errorf("%w: object is RS(%d+%d) but this client speaks RS(%d+%d)",
			ErrRejected, d, total-d, cd, ct-cd)
	}
	stripe := int(msg.Arg(protocol.DataArgStripe))
	start, slen := msg.Arg(protocol.DataArgStripeStart), msg.Arg(protocol.DataArgStripeLen)
	sd := slen // data bytes per full stripe, as this frame states them
	if stripe > 0 {
		sd = start / int64(stripe)
	}
	if f.stripeData == 0 {
		f.stripeData = sd
	}
	// End-to-end integrity: the stripe geometry must be the object's
	// (every stripe stripeData long but the last, which ends the
	// object) and intersect the span, the shard must be the size the
	// geometry demands, and it must match the checksum computed at
	// encode time — bound to the stripe entry's key. A mismatch means
	// corruption in transit or at rest: fail transient so the retry path
	// re-fetches (and the proxy escalates repeat offenders into
	// erasures) instead of decoding garbage.
	first, last, ok := protocol.SpanShards(start, slen, d, o.base, o.size)
	if !ok || size != f.size || sd != f.stripeData || stripe < 0 || idx >= total ||
		start != int64(stripe)*sd || slen != min(sd, size-start) ||
		int64(len(msg.Payload)) != protocol.ShardSizeFor(slen, d) {
		c.stats.ChecksumFailures.Add(1)
		return true, fmt.Errorf("%w: stripe %d chunk %d: bad shard geometry", errTransient, stripe, idx)
	}
	if sum := msg.Arg(protocol.DataArgSum); sum >= 0 &&
		protocol.ChunkSum(protocol.StripeKey(key, stripe), idx, msg.Payload) != sum {
		c.stats.ChecksumFailures.Add(1)
		return true, fmt.Errorf("%w: stripe %d chunk %d: checksum mismatch", errTransient, stripe, idx)
	}
	st := o.stripe(stripe, start, slen, total)
	if st.served || st.shards[idx] != nil {
		return false, nil // straggler or duplicate
	}
	st.shards[idx] = msg.Payload // ownership moves to the handle
	msg.Payload = nil
	st.got++
	for i := first; i <= last; i++ {
		if st.shards[i] != nil {
			continue
		}
		if st.got < d {
			return false, nil
		}
		c.stats.Decodes.Add(1)
		if err := c.codec.ReconstructData(st.shards); err != nil {
			return true, fmt.Errorf("client: decode stripe %d: %w", stripe, err)
		}
		break
	}
	st.served = true
	if f.left -= min(start+slen, o.base+o.size) - max(start, o.base); f.left > 0 {
		return false, nil
	}
	c.stats.Hits.Add(1)
	return true, nil
}

// getFrom runs one read attempt. With direct == "" the key's ring
// owner is asked; otherwise direct names the proxy (a fallback target).
// The authoritative flag makes the proxy serve regardless of ring
// ownership and answer a plain MISS instead of a second fallback
// redirect.
func (c *Client) getFrom(ctx context.Context, key, direct string, authoritative bool, span readSpan) (*Object, error) {
	var info ProxyInfo
	if direct == "" {
		var err error
		info, err = c.proxyFor(key)
		if err != nil {
			return nil, err
		}
	} else {
		info = c.proxyInfo(direct)
	}
	pc, err := c.conn(info.Addr)
	if err != nil {
		return nil, err
	}
	seq := c.seq.Add(1)
	// Sized for a single-stripe reply: up to d+p DATA frames plus a
	// verdict. A many-stripe reply grows the channel (proxyConn.grow).
	ch := pc.register(seq, c.codec.TotalShards()+2)
	// release also drains straggler DATA frames that landed after their
	// stripe was served, recycling their pooled payloads.
	defer pc.release(seq, ch)

	var args [3]int64
	if err := pc.conn.Forward(protocol.TGet, seq, key, "", span.args(authoritative, &args), nil); err != nil {
		return nil, connErr("get", err)
	}

	f := newFold()
	// Until the handle is handed off, every exit (miss, loss, error,
	// timeout, cancel) returns the shards received so far to the pool.
	handoff := false
	defer func() {
		if !handoff {
			f.obj.Release()
		}
	}()
	// One timer covers the whole wait (fixed deadline).
	timeout := c.cfg.Clock.After(c.cfg.RequestTimeout)
	for in := ch; ; {
		select {
		case msg, ok := <-in:
			if !ok {
				if in = pc.successor(in); in != nil {
					continue
				}
				return nil, errConnClosed
			}
			done, ferr := c.applyFrame(&f, key, span, msg)
			if !done {
				continue
			}
			if ferr != nil {
				return nil, ferr
			}
			// No recovery against a proxy outside the epoch view
			// (PoolSize unknown) — a retired fallback target is about to
			// drain anyway.
			if c.cfg.EnableRecovery && info.PoolSize > 0 {
				for i := range f.obj.stripes {
					st := &f.obj.stripes[i]
					c.maybeRecover(ctx, pc, protocol.StripeKey(key, st.index), info, st.slen, st.shards)
				}
			}
			handoff = true
			return f.obj, nil
		case <-ctx.Done():
			pc.cancel(seq)
			return nil, ctx.Err()
		case <-timeout:
			pc.cancel(seq)
			return nil, ErrTimeout
		}
	}
}

// args lays out the TGet args for the span (protocol.GetArg*) in buf:
// none for a plain whole-object read, [authoritative] for a fallback
// one, [authoritative, off, n] for a range.
func (s readSpan) args(authoritative bool, buf *[3]int64) []int64 {
	n := 0
	if authoritative {
		buf[protocol.GetArgAuthoritative], n = 1, 1
	}
	if s.ranged {
		buf[protocol.GetArgOff], buf[protocol.GetArgLen], n = s.off, s.n, 3
	}
	return buf[:n]
}

// maybeRecover re-encodes and re-inserts the chunks of one stripe entry
// that did not arrive (either lost to reclamation or straggling); this
// is the EC recovery activity plotted in Figure 14. It needs d shards
// of the stripe, so a sub-stripe read never repairs. Reconstructed
// shards are appended to the stripe's shard set, so the handle's
// Release recycles them too.
//
// Repair is single-flighted per (entry key, ring version) on the
// recovery plane: N concurrent degraded GETs of the same object produce
// exactly one set of recovery SETs — the others decode locally and skip
// the re-insert. A completed repair is remembered (bounded
// done-memory), so straggler-degraded reads of an already-repaired
// object do not write again; an epoch bump naturally re-keys the space.
func (c *Client) maybeRecover(ctx context.Context, pc *proxyConn, key string, info ProxyInfo, objSize int64, shards [][]byte) {
	var missing []int
	held := 0
	for i, s := range shards {
		if s == nil {
			missing = append(missing, i)
		} else {
			held++
		}
	}
	if len(missing) == 0 || held < c.codec.DataShards() {
		return
	}
	rkey := fmt.Sprintf("%s@%d", key, c.epoch.Load().Version())
	if !c.recovery.TryStart(rkey) {
		return // repair already running or done for this key+epoch
	}
	completed := false
	defer func() { c.recovery.Finish(rkey, completed) }()
	// Rebuild every shard, then re-insert only the missing ones.
	if err := c.codec.Reconstruct(shards); err != nil {
		return
	}
	sparse := make([][]byte, len(shards))
	for _, i := range missing {
		sparse[i] = shards[i]
	}
	nodes := c.placement(info.PoolSize, len(shards))
	gen := c.putGen.Add(1)
	if err := c.putChunks(ctx, pc, key, objSize, sparse, nodes, gen, true, nil); err == nil {
		completed = true
		c.stats.Recoveries.Add(int64(len(missing)))
	}
}

// DelCtx invalidates an object (the client library's
// overwrite/invalidation duty, §3.1), following WRONG_OWNER redirects —
// the DELETE must land at the ring owner so its tombstone fences any
// in-flight migration of the key.
func (c *Client) DelCtx(ctx context.Context, key string) error {
	var lastErr error
	for hop := 0; hop <= redirectBudget; hop++ {
		info, err := c.proxyFor(key)
		if err != nil {
			return err
		}
		err = c.delOnce(ctx, key, info.Addr)
		var wo *wrongOwnerError
		switch {
		case errors.As(err, &wo):
			c.stats.Redirects.Add(1)
			lastErr = err
			c.refreshRing(ctx, wo.owner)
		case errors.Is(err, errConnClosed):
			lastErr = err
			c.refreshRing(ctx, "")
		default:
			return err
		}
	}
	return fmt.Errorf("%w: redirect loop: %v", ErrRejected, lastErr)
}

// delOnce sends one DELETE to one proxy and waits for its verdict.
func (c *Client) delOnce(ctx context.Context, key, addr string) error {
	pc, err := c.conn(addr)
	if err != nil {
		return err
	}
	seq := c.seq.Add(1)
	ch := pc.register(seq, 2)
	defer pc.release(seq, ch)
	if err := pc.conn.Forward(protocol.TDel, seq, key, "", nil, nil); err != nil {
		return connErr("del", err)
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return errConnClosed
		}
		if resp.Type == protocol.TWrongOwner {
			wo := &wrongOwnerError{version: uint64(resp.Arg(0)), owner: resp.Addr}
			resp.Free()
			return wo
		}
		ok = resp.Type == protocol.TAck
		resp.Free()
		if !ok {
			return ErrRejected
		}
		return nil
	case <-ctx.Done():
		pc.cancel(seq)
		return ctx.Err()
	case <-c.cfg.Clock.After(c.cfg.RequestTimeout):
		pc.cancel(seq)
		return ErrTimeout
	}
}

// GetOrLoadCtx returns the cached object, or loads it with loader and
// inserts it on a miss (read-only write-through caching, §3.1). A
// loss-triggered reload is a RESET in the paper's terminology.
func (c *Client) GetOrLoadCtx(ctx context.Context, key string, loader func(context.Context) ([]byte, error)) ([]byte, error) {
	obj, err := c.GetCtx(ctx, key)
	if err == nil {
		return obj, nil
	}
	isLoss := errors.Is(err, ErrLost)
	if !isLoss && !errors.Is(err, ErrMiss) {
		return nil, err
	}
	obj, err = loader(ctx)
	if err != nil {
		return nil, err
	}
	if isLoss {
		c.stats.Resets.Add(1)
	}
	// The object is valid for the caller even if caching it fails.
	c.PutCtx(ctx, key, obj)
	return obj, nil
}
