// Command perfbench is the repository benchmark. It starts the default
// live deployment in-process (infinicache.New at TimeScale 1: one
// proxy, 20 × 1536 MB emulated Lambda nodes, RS(10+2), default T_warm
// and T_bak), preloads one workload's objects, and drives the workload
// as a closed loop of two sessions. Every byte read is verified against
// the version last acked for it; a wrong byte or a stale version aborts
// the run with a non-zero exit.
//
//	go run . --workload large-read --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics, measured from outside each layer, and
// writes the traced run's spans as JSON under .bench_out/. The last
// line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"infinicache"
	"infinicache/internal/client"
	"infinicache/internal/costmodel"
	"infinicache/internal/ec"
	"infinicache/internal/lambdaemu"
)

// deploymentClientSeed is the placement seed of the clients the
// default deployment builds (its seed 0 plus 101); traced clients use
// it too. The run's --seed shapes the inputs only, never the deployment.
const deploymentClientSeed = 101

// rounds is how many times an end-to-end run sets up the deployment
// (setup_s is their median) and how many slices its timed window is
// split into (every other metric is a median over slices).
const rounds = 5

// roundWarm is the untimed warm phase of each fresh deployment of a
// freshRounds workload.
const roundWarm = time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload: large-read, small-hot or write-mix")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *seconds < 2 {
		err = errors.New("--seconds must be at least 2")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	stop := make(chan struct{})
	startMemGuard(stop)
	fmt.Printf("# perfbench workload=%s seconds=%d trace=%d\n", w.name, *seconds, *trace)
	fmt.Printf("# meta %s\n", metadata(*seed))
	b := &bench{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	res, err := b.run(context.Background())
	close(stop)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type bench struct {
	w      workload
	seed   int64
	window time.Duration
	traced bool

	objs  []*object
	cache *infinicache.Cache
	// ops counts every operation the measured deployment served,
	// preload and warm phase included: the base of the per-op cost.
	ops     int64
	metrics map[string]metric
}

// report prints one metric line and records it for the JSON result.
func (b *bench) report(name string, value float64, unit, note string) {
	fmt.Printf("%-34s %14.4f %-7s %s\n", name, value, unit, note)
	b.metrics[name] = metric{Value: value, Unit: unit}
}

func (b *bench) run(ctx context.Context) (*result, error) {
	b.metrics = make(map[string]metric)
	b.objs = genObjects(b.w, b.seed)
	if b.traced {
		return b.runTraced(ctx)
	}
	return b.runEndToEnd(ctx)
}

// deploy starts a deployment and preloads every object, through a
// traced client when tr is set. It returns the set-up time and the
// latency of each single-object preload write.
func (b *bench) deploy(ctx context.Context, tr *tracer) (time.Duration, []float64, error) {
	t0 := time.Now()
	cache, err := infinicache.New(
		infinicache.WithTimeScale(1),
		infinicache.WithShards(dataShards, parityShards),
		infinicache.WithHotTier(b.w.hotTier),
	)
	if err != nil {
		return 0, nil, fmt.Errorf("start deployment: %w", err)
	}
	b.cache = cache
	var cl *infinicache.Client
	if tr != nil {
		cl, err = b.tracedClient(tr)
	} else {
		cl, err = cache.NewClient()
	}
	if err != nil {
		return 0, nil, err
	}
	defer cl.Close()
	lats, err := preload(ctx, b.w, cl, b.objs, tr)
	if err != nil {
		return 0, nil, err
	}
	b.ops = int64(len(b.objs))
	return time.Since(t0), lats, nil
}

// tracedClient builds a client of the deployment with client.New and a
// dialer that times every read and write on its proxy connections.
func (b *bench) tracedClient(tr *tracer) (*infinicache.Client, error) {
	return client.New(client.Config{
		Proxies:      b.cache.Deployment().ProxyInfos(),
		DataShards:   dataShards,
		ParityShards: parityShards,
		Clock:        b.cache.Clock(),
		Seed:         deploymentClientSeed,
		Dial:         tr.dial,
	})
}

// newSessions makes the closed-loop sessions, each with its own client
// (traced when tracers are given).
func (b *bench) newSessions(tracers []*tracer) ([]*session, error) {
	ss := make([]*session, sessions)
	for i := range ss {
		s := newSession(b.w, b.seed, i, b.objs)
		var err error
		if tracers != nil {
			s.tr = tracers[i]
			s.cl, err = b.tracedClient(s.tr)
		} else {
			s.cl, err = b.cache.NewClient()
		}
		if err != nil {
			return nil, err
		}
		ss[i] = s
	}
	return ss, nil
}

func closeSessions(ss []*session) {
	for _, s := range ss {
		s.cl.Close()
	}
}

// drive runs every session's closed loop for d and returns the merged
// outcomes and the wall time the window took (the last operation
// started before the deadline is allowed to finish).
func (b *bench) drive(ctx context.Context, ss []*session, d time.Duration) (*recorder, time.Duration, error) {
	recs := make([]*recorder, len(ss))
	errs := make([]error, len(ss))
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for i, s := range ss {
		recs[i] = newRecorder()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.run(ctx, end, recs[i])
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	rec := newRecorder()
	for _, r := range recs {
		rec.merge(r)
	}
	b.ops += rec.attempts
	if err := errors.Join(errs...); err != nil {
		return nil, 0, fmt.Errorf("verification failed: %w", err)
	}
	return rec, elapsed, nil
}

// warm runs the workload untimed so the hot tier and the node
// invocations settle before measuring: a fifth of the window (1-4 s),
// or roundWarm on each fresh deployment. Reads are verified all the
// same.
func (b *bench) warm(ctx context.Context, ss []*session) error {
	d := min(max(b.window/5, time.Second), 4*time.Second)
	if b.w.freshRounds {
		d = roundWarm
	}
	_, _, err := b.drive(ctx, ss, d)
	return err
}

// selfTest proves the verifier can fail: a real read of the smallest
// object is checked against a corrupted copy of its bytes and against
// the next version's bytes (the cache then serves a stale version);
// both checks must be rejected.
func (b *bench) selfTest(ctx context.Context, s *session) error {
	o := s.objs[0]
	for _, c := range s.objs {
		if len(c.data) < len(o.data) {
			o = c
		}
	}
	corrupt := append([]byte(nil), o.data...)
	corrupt[len(corrupt)/2] ^= 0x5a
	next := make([]byte, len(o.data))
	fillPayload(next, b.seed, o.idx, o.ver+1)
	for _, c := range []struct {
		what string
		ver  int64
		want []byte
	}{{"corrupt", o.ver, corrupt}, {"stale", o.ver + 1, next}} {
		obj, err := s.cl.GetObject(ctx, o.key)
		b.ops++
		if err != nil {
			return fmt.Errorf("self-test read %s: %w", o.key, err)
		}
		s.cmp.reset(o.key, c.ver, c.want)
		_, _ = obj.WriteTo(&s.cmp) // the verdict is read from cmp.done
		obj.Release()
		err = s.cmp.done()
		if err == nil {
			return fmt.Errorf("self-test: verifier accepted a %s payload", c.what)
		}
		fmt.Printf("# self-test %s payload rejected: %v\n", c.what, err)
	}
	return nil
}

// closeCache shuts the deployment down and returns its platform usage
// and the proxies' re-invocation count. An invocation is billed when
// its handler returns, and Close only signals the running handlers to
// stop, so the ledger is read once it has stopped changing.
func (b *bench) closeCache() (lambdaemu.Usage, int64) {
	d := b.cache.Deployment()
	var reinvokes int64
	for _, p := range d.Proxies {
		reinvokes += p.Stats().Reinvokes.Load()
	}
	b.cache.Close()
	return settledUsage(d.Platform.Ledger()), reinvokes
}

// settledUsage polls the ledger every 20 ms and returns its total once
// ten polls in a row have read the same invocation count (at most 5 s).
func settledUsage(l *lambdaemu.Ledger) lambdaemu.Usage {
	u := l.Total()
	for same, deadline := 0, time.Now().Add(5*time.Second); same < 10 && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		next := l.Total()
		if next.Invocations == u.Invocations {
			same++
		} else {
			same = 0
		}
		u = next
	}
	return u
}

// releaseMemory returns the heap of a closed deployment to the OS, so
// every deployment starts from the same resident set. The first
// collection moves pooled buffers to the pools' victim caches, the
// second frees them.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// round is what one slice of the timed window measured.
type round struct {
	rec     *recorder
	elapsed time.Duration
	cpu     time.Duration
	get     latency
	rss     float64 // mean VmRSS, MiB
}

// measure runs one slice of the timed window on the sessions.
func (b *bench) measure(ctx context.Context, ss []*session, d time.Duration) (*round, error) {
	u0, s0 := cpuTimes()
	rss := sampleRSS()
	rec, elapsed, err := b.drive(ctx, ss, d)
	meanRSS := rss()
	if err != nil {
		return nil, err
	}
	u1, s1 := cpuTimes()
	return &round{
		rec: rec, elapsed: elapsed, cpu: u1 - u0 + s1 - s0,
		get: summarize(rec.lat[opGet]), rss: meanRSS,
	}, nil
}

// runEndToEnd measures the end-to-end metrics. A run sets up the
// deployment `rounds` times (setup_s is the median) and splits the
// timed window into `rounds` slices; most metrics are the median of
// their per-slice values, so a burst of host noise in one slice does
// not move them. A workload with freshRounds measures each slice on
// its own deployment, set up, warmed for roundWarm and closed again;
// otherwise the last deployment is warmed once and measured for every
// slice, so state that builds up (the hot tier) carries over.
func (b *bench) runEndToEnd(ctx context.Context) (*result, error) {
	var setupS, preloadLats, costs []float64
	setUp := func() error {
		took, lats, err := b.deploy(ctx, nil)
		setupS = append(setupS, took.Seconds())
		preloadLats = append(preloadLats, lats...)
		return err
	}
	if !b.w.freshRounds {
		for i := 0; i < rounds-1; i++ {
			if err := setUp(); err != nil {
				return nil, err
			}
			b.cache.Close()
			releaseMemory()
		}
	}
	var ss []*session
	var rs []*round
	all := newRecorder()
	for i := 0; i < rounds; i++ {
		if ss == nil {
			if err := setUp(); err != nil {
				return nil, err
			}
			var err error
			if ss, err = b.newSessions(nil); err != nil {
				return nil, err
			}
			if err := b.warm(ctx, ss); err != nil {
				return nil, err
			}
			if i == 0 {
				if err := b.selfTest(ctx, ss[0]); err != nil {
					return nil, err
				}
			}
		}
		r, err := b.measure(ctx, ss, b.window/rounds)
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
		all.merge(r.rec)
		fmt.Printf("# slice %d: window %.3f s, %d ops, %.2f ops/s, cpu %.3f ms/op, rss %.0f MiB\n",
			i, r.elapsed.Seconds(), r.rec.attempts-r.rec.failed, r.opsPerS(), r.cpuPerOp(), r.rss)
		if b.w.freshRounds || i == rounds-1 {
			closeSessions(ss)
			ss = nil
			usage, _ := b.closeCache()
			costs = append(costs, costmodel.LambdaCost(usage)/float64(b.ops)*1e6)
			fmt.Printf("# deployment ledger: %d invocations, %.2f billed GB-s, %d ops, %.4f USD/Mop\n",
				usage.Invocations, usage.GBSeconds, b.ops, costs[len(costs)-1])
			releaseMemory()
		}
	}
	med := func(f func(r *round) float64) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = f(r)
		}
		return quantile(v, 0.5)
	}
	done := all.attempts - all.failed
	get, rng := summarize(all.lat[opGet]), summarize(all.lat[opRange])
	put, putNote := summarize(all.lat[opPut]), "timed-window PutCtx"
	if b.w.putShare == 0 {
		put, putNote = summarize(preloadLats), "preload writes of every set-up"
	}
	for _, k := range []struct {
		kind string
		l    latency
	}{{"get", get}, {"range", rng}, {"put", put}} {
		fmt.Printf("# %s latency ms over the window: p50 %.4f p90 %.4f p99 %.4f %s mean %.4f\n", k.kind, k.l.p50, k.l.p90, k.l.p99, k.l.tail(0.99), k.l.mean)
	}
	fresh := "one deployment"
	if b.w.freshRounds {
		fresh = "a fresh deployment each"
	}
	note := fmt.Sprintf("median of %d slices", rounds)
	fmt.Printf("# %d slices of %.1f s on %s, %d sessions, closed loop\n", rounds, (b.window / rounds).Seconds(), fresh, sessions)
	b.report("setup_s", quantile(setupS, 0.5), "s", fmt.Sprintf("(median of %d set-ups: %.3f)", len(setupS), setupS))
	b.report("ops_per_s", med((*round).opsPerS), "ops/s", fmt.Sprintf("(%s, n=%d ops)", note, done))
	b.report("goodput_MBps", med(func(r *round) float64 { return float64(r.rec.bytes) / r.elapsed.Seconds() / 1e6 }),
		"MB/s", fmt.Sprintf("(%s, %d verified or acked bytes)", note, all.bytes))
	b.report("get_p50_ms", med(func(r *round) float64 { return r.get.p50 }), "ms", fmt.Sprintf("(%s, n=%d whole-object GetObject)", note, get.n))
	b.report("get_p90_ms", med(func(r *round) float64 { return r.get.p90 }), "ms", fmt.Sprintf("(%s, n=%d; first slice %s)", note, get.n, rs[0].get.tail(0.9)))
	// Range and PUT latencies have far fewer samples, pooled over the
	// window. Both are bimodal where a request may reach a node that
	// has returned and pay a warm invoke; the median jumps between the
	// modes, the mean moves with the share of invokes.
	b.report("range_mean_ms", rng.mean, "ms", fmt.Sprintf("(n=%d GetRange over the window)", rng.n))
	b.report("put_mean_ms", put.mean, "ms", fmt.Sprintf("(n=%d, %s)", put.n, putNote))
	b.report("put_p90_ms", put.p90, "ms", fmt.Sprintf("(%s, %s)", putNote, put.tail(0.9)))
	b.report("cpu_ms_per_op", med((*round).cpuPerOp), "ms", fmt.Sprintf("(%s, process user+sys)", note))
	fmt.Printf("# peak RSS (VmHWM) of the run: %.0f MiB\n", float64(peakRSSKiB())/1024)
	b.report("rss_mean_MiB", med(func(r *round) float64 { return r.rss }), "MiB", fmt.Sprintf("(%s, VmRSS every 50 ms)", note))
	b.report("cost_usd_per_mop", quantile(costs, 0.5), "USD/Mop",
		fmt.Sprintf("(median over %d measured deployments: ledger over all the deployment's ops)", len(costs)))
	printFailures(all)
	return &result{Correct: true, Attempted: all.attempts, Failed: all.failed, Metrics: b.metrics}, nil
}

func (r *round) opsPerS() float64 {
	return float64(r.rec.attempts-r.rec.failed) / r.elapsed.Seconds()
}

func (r *round) cpuPerOp() float64 {
	return ms(r.cpu) / float64(r.rec.attempts-r.rec.failed)
}

// latency summarises one operation kind's samples (ms).
type latency struct {
	n                   int
	p50, p90, p99, mean float64
}

func summarize(lat []float64) latency {
	l := latency{n: len(lat), p50: quantile(lat, 0.5), p90: quantile(lat, 0.9), p99: quantile(lat, 0.99)}
	for _, x := range lat {
		l.mean += x / float64(l.n)
	}
	return l
}

// tail describes a percentile's sample support: it is valid only when
// at least ten samples lie beyond it.
func (l latency) tail(q float64) string {
	beyond := int(float64(l.n) * (1 - q))
	valid := "valid"
	if beyond < 10 {
		valid = "NOT valid: fewer than 10 samples beyond"
	}
	return fmt.Sprintf("(n=%d, %d beyond, %s)", l.n, beyond, valid)
}

func printFailures(rec *recorder) {
	ratio := 0.0
	if rec.attempts > 0 {
		ratio = float64(rec.failed) / float64(rec.attempts)
	}
	fmt.Printf("# fail_ratio %.6f (%d of %d attempted) ErrMiss=%d ErrLost=%d ErrRejected=%d ErrTimeout=%d other=%d\n",
		ratio, rec.failed, rec.attempts, rec.fails["ErrMiss"], rec.fails["ErrLost"],
		rec.fails["ErrRejected"], rec.fails["ErrTimeout"], rec.fails["other"])
}

// snapshot is the counter state of every layer at one instant; two
// snapshots bracket a window.
type snapshot struct {
	user, sys             time.Duration
	mallocs, allocBytes   uint64
	numGC                 uint32
	clientFlushes         uint64
	clientDecodes         int64
	proxyGets, proxyHot   int64
	proxyHotMiss, ranged  int64
	chunkGets, degraded   int64
	proxyFrames, pFlushes uint64
}

func (b *bench) snap(ss []*session) snapshot {
	var s snapshot
	s.user, s.sys = cpuTimes()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.mallocs, s.allocBytes, s.numGC = m.Mallocs, m.TotalAlloc, m.NumGC
	for _, se := range ss {
		s.clientFlushes += se.cl.WireStats().Flushes
		s.clientDecodes += se.cl.Stats().Decodes.Load()
	}
	for _, p := range b.cache.Deployment().Proxies {
		st := p.Stats()
		s.proxyGets += st.Gets.Load()
		s.proxyHot += st.HotHits.Load()
		s.proxyHotMiss += st.HotMisses.Load()
		s.ranged += st.RangedGets.Load()
		s.chunkGets += st.NodeChunkGets.Load()
		s.degraded += st.DegradedGets.Load()
		ws := p.WireSnapshot()
		s.proxyFrames += ws.FramesOut
		s.pFlushes += ws.Flushes
	}
	return s
}

func (a snapshot) minus(b snapshot) snapshot {
	return snapshot{
		user: a.user - b.user, sys: a.sys - b.sys,
		mallocs: a.mallocs - b.mallocs, allocBytes: a.allocBytes - b.allocBytes, numGC: a.numGC - b.numGC,
		clientFlushes: a.clientFlushes - b.clientFlushes, clientDecodes: a.clientDecodes - b.clientDecodes,
		proxyGets: a.proxyGets - b.proxyGets, proxyHot: a.proxyHot - b.proxyHot,
		proxyHotMiss: a.proxyHotMiss - b.proxyHotMiss, ranged: a.ranged - b.ranged,
		chunkGets: a.chunkGets - b.chunkGets, degraded: a.degraded - b.degraded,
		proxyFrames: a.proxyFrames - b.proxyFrames, pFlushes: a.pFlushes - b.pFlushes,
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runTraced measures the per-layer metrics. After one set-up and the
// warm phase, the window is split in two halves: the first runs
// untraced and gives every counter-based metric, the second runs on
// traced clients and gives the client spans. The layer kernels are
// then timed on the workload's own sizes.
func (b *bench) runTraced(ctx context.Context) (*result, error) {
	base := time.Now()
	var ids atomic.Int64
	var preTr *tracer
	if b.w.putShare == 0 {
		// A read-only mix writes only at preload; its PUT spans come
		// from there.
		preTr = newTracer(base, &ids)
	}
	if _, _, err := b.deploy(ctx, preTr); err != nil {
		return nil, err
	}
	ss, err := b.newSessions(nil)
	if err != nil {
		return nil, err
	}
	if err := b.warm(ctx, ss); err != nil {
		return nil, err
	}
	if err := b.selfTest(ctx, ss[0]); err != nil {
		return nil, err
	}
	half := b.window / 2
	before := b.snap(ss)
	recU, elapsedU, err := b.drive(ctx, ss, half)
	if err != nil {
		return nil, err
	}
	after := b.snap(ss)
	closeSessions(ss)

	tracers := make([]*tracer, sessions)
	for i := range tracers {
		tracers[i] = newTracer(base, &ids)
	}
	ts, err := b.newSessions(tracers)
	if err != nil {
		return nil, err
	}
	recT, elapsedT, err := b.drive(ctx, ts, half)
	if err != nil {
		return nil, err
	}
	closeSessions(ts)
	usage, reinvokes := b.closeCache()

	var spans []span
	dropped := 0
	for _, t := range append(tracers, preTr) {
		if t != nil {
			spans = append(spans, t.spans...)
			dropped += t.dropped
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	seg := segmentMedians(spans)

	opsU := float64(recU.attempts - recU.failed)
	kops := float64(b.ops) / 1000
	d := after.minus(before)
	gets := float64(len(recU.lat[opGet]))

	fmt.Printf("# per-layer: counters over the untraced half (%.3f s, %d ops), spans over the traced half (%.3f s)\n",
		elapsedU.Seconds(), int64(opsU), elapsedT.Seconds())
	for _, kind := range kindNames {
		for _, part := range []string{"send", "remote", "recv"} {
			sm := seg["client."+kind+"."+part]
			b.report("client."+kind+"."+part+"_ms", sm.value, "ms", fmt.Sprintf("(median, n=%d)", sm.n))
		}
	}
	vs := seg["bench.verify"]
	fmt.Printf("# bench.verify median %.4f ms (n=%d)\n", vs.value, vs.n)

	b.report("client.decodes_per_get", ratio(float64(d.clientDecodes), gets), "ratio", fmt.Sprintf("(%d whole GETs)", int64(gets)))
	b.report("client.flushes_per_op", ratio(float64(d.clientFlushes), opsU), "ratio", "")
	b.report("proxy.flushes_per_frame", ratio(float64(d.pFlushes), float64(d.proxyFrames)),
		"ratio", fmt.Sprintf("(%d frames)", d.proxyFrames))
	pg := float64(d.proxyGets)
	hot := float64(d.proxyHot)
	b.report("proxy.hot_hit_ratio", ratio(hot, hot+float64(d.proxyHotMiss)), "ratio", "")
	chunkGets := float64(d.chunkGets)
	b.report("proxy.chunk_gets_per_get", ratio(chunkGets, pg), "ratio", fmt.Sprintf("(%d proxy GETs)", int64(pg)))
	b.report("proxy.useful_chunk_ratio", ratio(float64(recU.chunks)-hot*dataShards, chunkGets), "ratio",
		"(chunks the reads needed, hot-tier hits excluded, over chunks fetched)")
	b.report("proxy.ranged_per_get", ratio(float64(d.ranged), pg), "ratio", "")
	b.report("proxy.degraded_ratio", ratio(float64(d.degraded), pg), "ratio", "")
	b.report("proxy.reinvokes", float64(reinvokes), "count", "(whole run)")
	b.report("lambdaemu.invocations_per_kop", float64(usage.Invocations)/kops, "1/kop", fmt.Sprintf("(whole run, %d ops)", b.ops))
	b.report("lambdaemu.billed_gbs_per_kop", usage.GBSeconds/kops, "GB-s/kop", "(whole run)")
	b.report("lambdaemu.billed_over_raw", ratio(float64(usage.BilledDuration), float64(usage.RawDuration)), "ratio", "(whole run)")
	b.report("go.allocs_per_op", ratio(float64(d.mallocs), opsU), "count", "")
	b.report("go.alloc_KiB_per_op", ratio(float64(d.allocBytes)/1024, opsU), "KiB", "")
	b.report("go.gc_per_kop", ratio(float64(d.numGC), opsU/1000), "1/kop", "")
	b.report("proc.sys_cpu_share", ratio(float64(d.sys), float64(d.user+d.sys)), "ratio", "")

	codec, err := ec.New(dataShards, parityShards)
	if err != nil {
		return nil, err
	}
	getSizes, putSizes, chunk := b.layerSizes()
	b.report("ec.reconstruct_ms_per_get", timeReconstruct(codec, getSizes, stripeShard*dataShards)*ratio(float64(d.clientDecodes), gets),
		"ms", "(ReconstructData, 2 data shards missing, x decodes_per_get)")
	b.report("ec.encode_ms_per_put", timeEncode(codec, putSizes, stripeShard*dataShards), "ms", "(EncodeInto)")
	b.report("gf256.mulsources_GBps", mulSourcesGBps(dataShards, chunk), "GB/s", fmt.Sprintf("(%d sources of %d B)", dataShards, chunk))
	rtt, err := frameRTT(chunk)
	if err != nil {
		return nil, fmt.Errorf("frame round trip: %w", err)
	}
	b.report("protocol.frame_rtt_us", rtt, "us", fmt.Sprintf("(Forward->Recv, %d B payload, loopback)", chunk))
	opsT := float64(recT.attempts - recT.failed)
	b.report("trace.overhead_pct", 100*(1-ratio(opsT/elapsedT.Seconds(), opsU/elapsedU.Seconds())), "%", "(traced vs untraced ops/s)")

	name := fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.seed)
	path, err := writeSpans(".bench_out", name, spans, dropped)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# spans: %d written to %s (%d dropped)\n", len(spans), path, dropped)
	recU.merge(recT)
	printFailures(recU)
	return &result{Correct: true, Attempted: recU.attempts, Failed: recU.failed, Metrics: b.metrics}, nil
}

// layerSizes draws the object sizes the layer kernels are timed on:
// 32 reads by the workload's popularity, the objects its writes touch,
// and the median chunk of those reads.
func (b *bench) layerSizes() (gets, puts []int, chunk int) {
	s := newSession(b.w, b.seed+99, 0, b.objs)
	var chunks []float64
	for i := 0; i < 32; i++ {
		o := s.objs[s.keys.next()]
		gets = append(gets, len(o.data))
		chunks = append(chunks, float64((min(len(o.data), o.stripeData)+dataShards-1)/dataShards))
	}
	if b.w.putShare == 0 {
		for _, o := range b.objs {
			puts = append(puts, len(o.data))
		}
	} else {
		puts = gets
	}
	return gets, puts, int(quantile(chunks, 0.5))
}
