package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"infinicache"
	"infinicache/internal/protocol"
)

// workload is one traffic mix. Its inputs (sizes, payloads, operation
// sequences, range offsets) are all generated from the run's seed.
type workload struct {
	name string
	// objects preloaded at set-up, with sizes spread over [minSize,
	// maxSize]: log-uniform when logSizes is set, uniform otherwise.
	objects          int
	minSize, maxSize int
	logSizes         bool
	// streamAbove routes preload writes above this size through
	// PutReader, as ic-replay's streamPutThreshold does (0: never).
	streamAbove int
	// mput preloads with MPut bursts instead of one PutCtx per object.
	mput bool
	// hotTier sizes the proxy hot tier (0: off).
	hotTier int64
	// Timed-phase operation shares; they sum to 1.
	getShare, rangeShare, putShare float64
	// shared: every session reads every object (a read-only mix).
	// Otherwise each session owns the objects it reads and writes.
	shared bool
	// freshRounds measures each slice of the window on a deployment
	// of its own. The read path's live heap grows with the bytes read
	// within one deployment; a fresh one per slice keeps peak RSS, and
	// the page faults of the growth, the same in every slice.
	freshRounds bool
}

// The deployment's RS code and the client's default streaming stripe
// shard: a streamed object is stored in stripes of stripeShard×d bytes.
const (
	dataShards   = 10
	parityShards = 2
	stripeShard  = 1 << 20
)

// zipfS is the popularity skew of every workload.
const zipfS = 1.1

// sessions is the closed-loop concurrency: each session is one client
// issuing its next request only after the previous one returned.
const sessions = 2

// sizeJitter bounds how far the seed moves an object's size.
const sizeJitter = 4096

// rangeMax is the ranged-read length; objects smaller than twice that
// are read in ranges of half their size.
const rangeMax = 1 << 20

var workloads = []workload{
	{
		name: "large-read", objects: 24, minSize: 1 << 20, maxSize: 20 << 20, logSizes: true,
		streamAbove: 8 << 20, getShare: 0.8, rangeShare: 0.2, shared: true, freshRounds: true,
	},
	{
		name: "small-hot", objects: 2000, minSize: 1 << 10, maxSize: 64 << 10,
		mput: true, hotTier: 16 << 20, getShare: 0.96, rangeShare: 0.02, putShare: 0.02,
	},
	{
		name: "write-mix", objects: 64, minSize: 256 << 10, maxSize: 4 << 20,
		getShare: 0.4, rangeShare: 0.1, putShare: 0.5,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// object is one cached key and the bytes its latest acked version must
// read back as.
type object struct {
	idx int
	key string
	ver int64
	// stripeData is the data bytes per RS stripe the object is stored
	// as: the whole object unless it was streamed in stripes.
	stripeData int
	data       []byte // expected bytes of version ver
	spare      []byte // buffer the next version is written from
}

// genObjects builds the workload's objects in popularity-rank order.
// Sizes are stratified: rank r takes the midpoint of stratum
// (r*step+n/2) mod n of the size range, moved by up to ±sizeJitter
// bytes by the seed. The seed thus changes exact sizes (and so shard
// and stripe alignment) but not the size-by-popularity profile, and
// runs with different seeds measure the same byte mass.
func genObjects(w workload, seed int64) []*object {
	rng := rand.New(rand.NewSource(seed))
	n := w.objects
	step := int(0.618*float64(n)) | 1
	for gcd(step, n) != 1 {
		step += 2
	}
	objs := make([]*object, n)
	for r := range objs {
		u := (float64((r*step+n/2)%n) + 0.5) / float64(n)
		var size int
		if w.logSizes {
			size = int(float64(w.minSize) * math.Pow(float64(w.maxSize)/float64(w.minSize), u))
		} else {
			size = w.minSize + int(u*float64(w.maxSize-w.minSize))
		}
		jitter := min(sizeJitter, w.minSize/4)
		size += rng.Intn(2*jitter+1) - jitter
		o := &object{idx: r, key: fmt.Sprintf("%s/%05d", w.name, r), data: make([]byte, size), stripeData: size}
		if w.streamAbove > 0 && size > w.streamAbove {
			o.stripeData = stripeShard * dataShards
		}
		fillPayload(o.data, seed, r, 0)
		objs[r] = o
	}
	return objs
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

type opKind int

const (
	opGet opKind = iota
	opRange
	opPut
	nKinds
)

var kindNames = [nKinds]string{"get", "range", "put"}

// recorder accumulates one session's outcomes; sessions merge theirs
// after the window closes.
type recorder struct {
	lat      [nKinds][]float64 // milliseconds
	attempts int64
	failed   int64
	bytes    int64
	// chunks is the number of chunk reads the verified reads needed at
	// minimum: d per stripe of a whole read, the planned data chunks of
	// a ranged read.
	chunks int64
	fails  map[string]int64
}

func newRecorder() *recorder { return &recorder{fails: make(map[string]int64)} }

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	r.attempts += o.attempts
	r.failed += o.failed
	r.bytes += o.bytes
	r.chunks += o.chunks
	for k, v := range o.fails {
		r.fails[k] += v
	}
}

func (r *recorder) fail(err error) {
	r.failed++
	r.fails[errClass(err)]++
}

func errClass(err error) string {
	switch {
	case errors.Is(err, infinicache.ErrMiss):
		return "ErrMiss"
	case errors.Is(err, infinicache.ErrLost):
		return "ErrLost"
	case errors.Is(err, infinicache.ErrRejected):
		return "ErrRejected"
	case errors.Is(err, infinicache.ErrTimeout):
		return "ErrTimeout"
	}
	return "other"
}

// session is one closed-loop caller: a client, the objects it may
// touch in popularity order, and its own random stream.
type session struct {
	seed int64
	cl   *infinicache.Client
	objs []*object
	rng  *rand.Rand
	keys *deck // indexes into objs, in Zipf proportions
	ops  *deck // opKinds, in the workload's shares
	cmp  cmpWriter
	tr   *tracer // nil in untraced phases
}

func newSession(w workload, seed int64, id int, all []*object) *session {
	s := &session{seed: seed, rng: rand.New(rand.NewSource(seed*1000 + int64(id) + 1))}
	for _, o := range all {
		if w.shared || o.idx%sessions == id {
			s.objs = append(s.objs, o)
		}
	}
	weights := make([]float64, len(s.objs))
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -zipfS)
	}
	s.keys = newDeck(weights, s.rng)
	s.ops = newDeck([]float64{w.getShare, w.rangeShare, w.putShare}, s.rng)
	return s
}

// deck draws indexes in proportion to their weights. It is the
// smallest deck in which the lightest index holds one card; each index
// holds its largest-remainder share of the cards, which is exact for
// the operation shares. The cards are dealt in a seeded shuffle that
// is redone every pass. Unlike independent draws, every full pass has
// the same mix, so the object sizes and operation kinds a run covers
// do not drift with the seed.
type deck struct {
	cards []int
	pos   int
	rng   *rand.Rand
}

func newDeck(weights []float64, rng *rand.Rand) *deck {
	var total, lightest float64
	for _, w := range weights {
		total += w
		if w > 0 && (lightest == 0 || w < lightest) {
			lightest = w
		}
	}
	size := int(math.Ceil(total/lightest - 1e-9))
	type rem struct {
		idx  int
		frac float64
	}
	var rems []rem
	d := &deck{rng: rng}
	for i, w := range weights {
		exact := w / total * float64(size)
		for c := 0; c < int(exact); c++ {
			d.cards = append(d.cards, i)
		}
		rems = append(rems, rem{i, exact - math.Floor(exact)})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; len(d.cards) < size; i++ {
		d.cards = append(d.cards, rems[i].idx)
	}
	d.pos = len(d.cards)
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

// run drives the closed loop until end. A returned error is a
// verification failure, which aborts the benchmark.
func (s *session) run(ctx context.Context, end time.Time, rec *recorder) error {
	for time.Now().Before(end) {
		o := s.objs[s.keys.next()]
		if err := s.do(ctx, opKind(s.ops.next()), o, rec); err != nil {
			return err
		}
	}
	return nil
}

// do issues one operation, times the call alone, then verifies its
// result outside the timed span.
func (s *session) do(ctx context.Context, kind opKind, o *object, rec *recorder) error {
	rec.attempts++
	switch kind {
	case opGet:
		op := s.tr.begin()
		t0 := time.Now()
		obj, err := s.cl.GetObject(ctx, o.key)
		lat := time.Since(t0)
		s.tr.end(op, kind, t0, lat, len(o.data), err)
		if err != nil {
			rec.fail(err)
			return nil
		}
		s.cmp.reset(o.key, o.ver, o.data)
		_, werr := obj.WriteTo(&s.cmp)
		obj.Release()
		if err := s.cmp.done(); err != nil {
			return err
		}
		if werr != nil {
			return fmt.Errorf("read %s: %w", o.key, werr)
		}
		s.tr.verified(op, t0.Add(lat))
		rec.lat[kind] = append(rec.lat[kind], ms(lat))
		rec.bytes += int64(len(o.data))
		rec.chunks += int64(dataShards * len(stripeSizes(len(o.data), o.stripeData)))
	case opRange:
		n := min(rangeMax, len(o.data)/2)
		off := s.rng.Intn(len(o.data) - n + 1)
		op := s.tr.begin()
		t0 := time.Now()
		got, err := s.cl.GetRange(ctx, o.key, int64(off), int64(n))
		lat := time.Since(t0)
		s.tr.end(op, kind, t0, lat, n, err)
		if err != nil {
			rec.fail(err)
			return nil
		}
		if err := checkRange(o.key, o.ver, o.data[off:off+n], got, off); err != nil {
			return err
		}
		s.tr.verified(op, t0.Add(lat))
		rec.lat[kind] = append(rec.lat[kind], ms(lat))
		rec.bytes += int64(n)
		for _, sp := range protocol.PlanRange(int64(len(o.data)), int64(o.stripeData), dataShards, int64(off), int64(n)) {
			rec.chunks += int64(len(sp.Shards))
		}
	case opPut:
		return s.put(ctx, o, rec)
	}
	return nil
}

// put writes the object's next version. A failed PUT leaves the stored
// version uncertain, so the session re-puts until one is acked; every
// failed attempt is counted.
func (s *session) put(ctx context.Context, o *object, rec *recorder) error {
	for try := 0; ; try++ {
		ver := o.ver + 1
		if cap(o.spare) < len(o.data) {
			o.spare = make([]byte, len(o.data))
		}
		o.spare = o.spare[:len(o.data)]
		fillPayload(o.spare, s.seed, o.idx, ver)
		op := s.tr.begin()
		t0 := time.Now()
		err := s.cl.PutCtx(ctx, o.key, o.spare)
		lat := time.Since(t0)
		s.tr.end(op, opPut, t0, lat, len(o.spare), err)
		if err == nil {
			o.ver, o.data, o.spare = ver, o.spare, o.data
			rec.lat[opPut] = append(rec.lat[opPut], ms(lat))
			rec.bytes += int64(len(o.data))
			return nil
		}
		rec.fail(err)
		if try == 3 {
			return fmt.Errorf("put %s: no version acked after %d attempts: %w", o.key, try+1, err)
		}
		rec.attempts++
		o.ver = ver // the failed version may have landed; never reuse its number
	}
}

// preload writes every object's version 0 through cl and returns the
// latency of each write (per-object writes only; MPut bursts are not
// single operations).
func preload(ctx context.Context, w workload, cl *infinicache.Client, objs []*object, tr *tracer) ([]float64, error) {
	if w.mput {
		const burst = 100
		for i := 0; i < len(objs); i += burst {
			kvs := make([]infinicache.KV, 0, burst)
			for _, o := range objs[i:min(i+burst, len(objs))] {
				kvs = append(kvs, infinicache.KV{Key: o.key, Value: o.data})
			}
			for _, r := range cl.MPut(ctx, kvs...) {
				if r.Err != nil {
					return nil, fmt.Errorf("preload %s: %w", r.Key, r.Err)
				}
			}
		}
		return nil, nil
	}
	lats := make([]float64, 0, len(objs))
	for _, o := range objs {
		op := tr.begin()
		t0 := time.Now()
		var err error
		if w.streamAbove > 0 && len(o.data) > w.streamAbove {
			err = cl.PutReader(ctx, o.key, int64(len(o.data)), bytes.NewReader(o.data))
		} else {
			err = cl.PutCtx(ctx, o.key, o.data)
		}
		lat := time.Since(t0)
		tr.end(op, opPut, t0, lat, len(o.data), err)
		if err != nil {
			return nil, fmt.Errorf("preload %s: %w", o.key, err)
		}
		lats = append(lats, ms(lat))
	}
	return lats, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
