// Package infinicache is a reproduction of "InfiniCache: Exploiting
// Ephemeral Serverless Functions to Build a Cost-Effective Memory Cache"
// (Wang et al., USENIX FAST 2020): an in-memory object cache built
// entirely on ephemeral serverless functions.
//
// The public API wraps a full local deployment — an emulated serverless
// platform (internal/lambdaemu), one or more proxies (internal/proxy),
// and erasure-coding clients (internal/client) — behind a context-first
// streaming interface configured with functional options:
//
//	cache, err := infinicache.New(
//		infinicache.WithShards(10, 2),
//		infinicache.WithNodesPerProxy(14),
//	)
//	if err != nil { ... }
//	defer cache.Close()
//
//	client, err := cache.NewClient()
//	if err != nil { ... }
//	ctx := context.Background()
//	if err := client.PutCtx(ctx, "my-object", data); err != nil { ... }
//
//	obj, err := client.GetObject(ctx, "my-object") // zero-copy handle
//	if err != nil { ... }
//	obj.WriteTo(w) // stream the shards straight out, no reassembly copy
//	obj.Release()  // return the pooled buffers
//
// Batches ride one pipelined burst per owning proxy:
//
//	for _, r := range client.MGet(ctx, keys...) {
//		if r.Err == nil { r.Object.WriteTo(w); r.Object.Release() }
//	}
//
// Large objects stream: PutReader encodes and ships stripe windows as
// the bytes arrive (peak memory stays a few stripes regardless of
// object size), and GetRange fetches only the data chunks a byte range
// intersects:
//
//	if err := client.PutReader(ctx, "big", size, reader); err != nil { ... }
//	page, err := client.GetRange(ctx, "big", 512<<20, 1<<20) // 1 MiB at 512 MiB
//
// Objects are Reed-Solomon encoded into d+p chunks spread over a pool of
// emulated Lambda functions; the platform reclaims functions per a
// configurable policy, and the cache defends itself with parity chunks,
// periodic warm-ups, and the paper's delta-sync backup protocol.
// Cancelling a context propagates end-to-end: the client CANCELs the
// in-flight request so the proxy's dispatcher window slots free up
// instead of serving a caller that left.
package infinicache

import (
	"time"

	"infinicache/internal/client"
	"infinicache/internal/core"
	"infinicache/internal/lambdaemu"
	"infinicache/internal/vclock"
)

// Config mirrors the paper's deployment knobs. The zero value gives a
// small single-proxy cluster with RS(10+2), 1-minute warm-ups and
// 5-minute backups at real-time pacing. Construction goes through
// functional options (New(WithShards(10, 2), ...)), each of which sets
// one Config field.
type Config struct {
	// Proxies is the number of proxies (default 1).
	Proxies int
	// NodesPerProxy is the Lambda pool size per proxy (default 20).
	NodesPerProxy int
	// NodeMemoryMB sizes each cache-node function (default 1536, the
	// paper's production configuration).
	NodeMemoryMB int
	// DataShards and ParityShards pick the RS code (default 10+2).
	DataShards   int
	ParityShards int
	// WarmupInterval is T_warm (default 1 minute; 0 disables).
	WarmupInterval time.Duration
	// BackupInterval is T_bak (default 5 minutes; 0 disables).
	BackupInterval time.Duration
	// ReclaimPolicy drives provider-side reclamation (default none).
	ReclaimPolicy lambdaemu.ReclaimPolicy
	// TimeScale compresses virtual time (e.g. 0.01 runs 100x faster
	// than the wall clock); 0 means real time.
	TimeScale float64
	// Clock overrides the deployment clock entirely (wins over
	// TimeScale). Harnesses use this to drive a deployment on a
	// hand-stepped vclock.Manual for deterministic replay.
	Clock vclock.Clock
	// HotTierBytes enables a proxy-resident hot-object tier of that
	// many bytes per proxy: GETs for small, frequently-read objects are
	// served straight from proxy memory instead of paying the d+p chunk
	// round trips to Lambda nodes. 0 (the default) disables the tier.
	HotTierBytes int64
	// HotMaxObjectBytes caps the size of objects the hot tier admits
	// (default 1 MiB when the tier is enabled).
	HotMaxObjectBytes int64
	// MigrationRateBytes paces the key-migration plane that streams
	// objects to their new owners after a proxy joins or leaves: a
	// token-bucket refill rate in bytes/second of chunk payload.
	// 0 takes the 32 MiB/s default; negative disables pacing.
	MigrationRateBytes int64
	// MigrationBurstBytes is the migration token bucket's depth
	// (default max(rate/8, 256 KiB)).
	MigrationBurstBytes int64
	// RequestTimeout bounds each client operation (default 60s).
	RequestTimeout time.Duration
	// EnableRecovery re-inserts EC-reconstructed chunks after degraded
	// reads (default true).
	EnableRecovery bool
	// Seed makes placement and policies deterministic.
	Seed int64
	// FaultInjection arms the deterministic chaos plane: a seeded fault
	// engine is threaded through every node link and client dialer,
	// reachable via Deployment().Faults() for chaos scheduling
	// (internal/chaos). Off by default with zero wire-path overhead.
	FaultInjection bool
	// HedgedGets enables hedged degraded reads on every proxy: a GET
	// fans out to exactly d chunks, and a slow or failed chunk is hedged
	// with one extra request to a healthy node after HedgeDelay (0
	// derives the delay from the observed chunk-RTT p99). Per-node
	// circuit breakers steer requests away from black-holed nodes.
	HedgedGets bool
	HedgeDelay time.Duration
}

// Option adjusts the deployment configuration at New time.
type Option func(*Config)

// WithProxies sets the number of proxies.
func WithProxies(n int) Option { return func(c *Config) { c.Proxies = n } }

// WithNodesPerProxy sets the Lambda pool size behind each proxy.
func WithNodesPerProxy(n int) Option { return func(c *Config) { c.NodesPerProxy = n } }

// WithNodeMemoryMB sizes each cache-node function.
func WithNodeMemoryMB(mb int) Option { return func(c *Config) { c.NodeMemoryMB = mb } }

// WithShards picks the RS(d+p) erasure code.
func WithShards(data, parity int) Option {
	return func(c *Config) { c.DataShards, c.ParityShards = data, parity }
}

// WithWarmupInterval sets T_warm (§4.2); 0 or negative disables
// warm-ups. (Config keeps 0 as "take the default", so the option maps
// disable requests to the negative sentinel New resolves.)
func WithWarmupInterval(d time.Duration) Option {
	return func(c *Config) {
		if d <= 0 {
			d = -1
		}
		c.WarmupInterval = d
	}
}

// WithBackupInterval sets T_bak (§4.2); 0 or negative disables
// delta-sync backups.
func WithBackupInterval(d time.Duration) Option {
	return func(c *Config) {
		if d <= 0 {
			d = -1
		}
		c.BackupInterval = d
	}
}

// WithHotTier gives each proxy a resident hot-object tier of bytes
// bytes: small, frequently-read objects are served from proxy memory,
// short-circuiting the Lambda round trip (admission is write-through
// and read-through, frequency-gated; overwrites, deletes and cancelled
// PUTs invalidate synchronously). Off by default; 0 or negative
// disables.
func WithHotTier(bytes int64) Option {
	return func(c *Config) {
		if bytes < 0 {
			bytes = 0
		}
		c.HotTierBytes = bytes
	}
}

// WithHotTierMaxObject caps the object size the hot tier admits
// (default 1 MiB). Only meaningful together with WithHotTier.
func WithHotTierMaxObject(bytes int64) Option {
	return func(c *Config) { c.HotMaxObjectBytes = bytes }
}

// WithReclaimPolicy drives provider-side reclamation.
func WithReclaimPolicy(p lambdaemu.ReclaimPolicy) Option {
	return func(c *Config) { c.ReclaimPolicy = p }
}

// WithTimeScale compresses virtual time (0.01 = 100x faster).
func WithTimeScale(s float64) Option { return func(c *Config) { c.TimeScale = s } }

// WithClock runs the deployment on an explicit clock (wins over
// WithTimeScale); pass a *vclock.Manual for deterministic tests.
func WithClock(clk vclock.Clock) Option { return func(c *Config) { c.Clock = clk } }

// WithTimeout bounds each client operation (the default for clients
// made by NewClient; override per client with ClientTimeout).
func WithTimeout(d time.Duration) Option { return func(c *Config) { c.RequestTimeout = d } }

// WithRecovery toggles client-side EC chunk recovery after degraded
// reads.
func WithRecovery(on bool) Option { return func(c *Config) { c.EnableRecovery = on } }

// WithSeed makes placement and policies deterministic.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithMigrationRate paces post-churn key migration at rate bytes/second
// with the given token-bucket depth (burst 0 picks max(rate/8,
// 256 KiB)). Rate 0 takes the 32 MiB/s default; a negative rate
// disables pacing entirely.
func WithMigrationRate(rate, burst int64) Option {
	return func(c *Config) {
		c.MigrationRateBytes = rate
		c.MigrationBurstBytes = burst
	}
}

// WithFaultInjection arms the deterministic chaos plane (see
// Config.FaultInjection).
func WithFaultInjection() Option { return func(c *Config) { c.FaultInjection = true } }

// WithHedgedGets enables hedged degraded reads with per-node circuit
// breakers; delay 0 derives the hedge delay from the observed
// chunk-RTT p99 (see Config.HedgedGets).
func WithHedgedGets(delay time.Duration) Option {
	return func(c *Config) { c.HedgedGets, c.HedgeDelay = true, delay }
}

// Cache is a running InfiniCache deployment.
type Cache struct {
	d *core.Deployment
}

// Client is the application-facing cache handle: context-first
// GetObject/GetCtx/PutCtx/DelCtx/GetOrLoadCtx plus the batched
// MGet/MPut, with deprecated context-free wrappers.
type Client = client.Client

// Object is the zero-copy handle a GetObject returns: stream it with
// WriteTo/Read or copy with Bytes, then Release it to recycle the
// pooled shard buffers.
type Object = client.Object

// KV, GetResult and PutResult are the batch-operation inputs/outcomes.
type (
	KV        = client.KV
	GetResult = client.GetResult
	PutResult = client.PutResult
)

// Stats re-exports the client counters.
type Stats = client.Stats

// ClientOption tunes one client made by NewClient.
type ClientOption = client.Option

// Per-client options (NewClient(...)): request timeout, EC recovery,
// RS code, placement seed and streaming stripe-shard overrides.
var (
	ClientTimeout  = client.WithRequestTimeout
	ClientRecovery = client.WithRecovery
	ClientShards   = client.WithShards
	ClientSeed     = client.WithSeed
	// ClientStripeShard sets the target data-shard size for streaming
	// PUTs: each PutReader stripe carries shard×d data bytes, so it
	// bounds both the per-chunk payload and the client's resident
	// window. Default 1 MiB.
	ClientStripeShard = client.WithStripeShard
)

// Errors re-exported from the client library.
var (
	// ErrMiss: the key is not cached.
	ErrMiss = client.ErrMiss
	// ErrLost: the key was cached but reclamation destroyed more than
	// p chunks; reload it from the backing store.
	ErrLost = client.ErrLost
	// ErrTimeout: the operation outlived the request timeout.
	ErrTimeout = client.ErrTimeout
	// ErrRejected: the proxy refused the request even after the
	// client's internal retries (e.g. a chunk-timeout window during a
	// racing write or backup swap); reload from the backing store.
	ErrRejected = client.ErrRejected
	// ErrReleased: an Object was used after Release.
	ErrReleased = client.ErrReleased
)

// New starts a deployment configured by opts.
func New(opts ...Option) (*Cache, error) {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.NodesPerProxy == 0 {
		cfg.NodesPerProxy = 20
	}
	if cfg.DataShards == 0 && cfg.ParityShards == 0 {
		cfg.DataShards, cfg.ParityShards = 10, 2
	}
	if cfg.WarmupInterval == 0 {
		cfg.WarmupInterval = time.Minute
	} else if cfg.WarmupInterval < 0 {
		cfg.WarmupInterval = 0 // explicit disable (core: 0 = off)
	}
	if cfg.BackupInterval == 0 {
		cfg.BackupInterval = 5 * time.Minute
	} else if cfg.BackupInterval < 0 {
		cfg.BackupInterval = 0
	}
	d, err := core.New(core.Config{
		Proxies:             cfg.Proxies,
		NodesPerProxy:       cfg.NodesPerProxy,
		NodeMemoryMB:        cfg.NodeMemoryMB,
		DataShards:          cfg.DataShards,
		ParityShards:        cfg.ParityShards,
		HotTierBytes:        cfg.HotTierBytes,
		HotMaxObjectBytes:   cfg.HotMaxObjectBytes,
		WarmupInterval:      cfg.WarmupInterval,
		BackupInterval:      cfg.BackupInterval,
		ReclaimPolicy:       cfg.ReclaimPolicy,
		MigrationRateBytes:  cfg.MigrationRateBytes,
		MigrationBurstBytes: cfg.MigrationBurstBytes,
		TimeScale:           cfg.TimeScale,
		Clock:               cfg.Clock,
		RequestTimeout:      cfg.RequestTimeout,
		EnableRecovery:      cfg.EnableRecovery,
		Seed:                cfg.Seed,
		FaultInjection:      cfg.FaultInjection,
		HedgedGets:          cfg.HedgedGets,
		HedgeDelay:          cfg.HedgeDelay,
	})
	if err != nil {
		return nil, err
	}
	return &Cache{d: d}, nil
}

// NewClient returns a cache client; each client maintains its own proxy
// connections and can be used concurrently. Options override the
// deployment defaults for this client only.
func (c *Cache) NewClient(opts ...ClientOption) (*Client, error) { return c.d.NewClient(opts...) }

// Deployment exposes the underlying deployment for advanced use
// (fault injection, platform stats, proxy metrics).
func (c *Cache) Deployment() *core.Deployment { return c.d }

// Clock returns the deployment's (virtual) clock.
func (c *Cache) Clock() vclock.Clock { return c.d.Clock() }

// Close shuts everything down.
func (c *Cache) Close() { c.d.Close() }
