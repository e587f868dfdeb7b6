package client

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"infinicache/internal/bufpool"
	"infinicache/internal/protocol"
)

// KV is one key/value pair of an MPut.
type KV struct {
	Key   string
	Value []byte
}

// GetResult is one key's outcome of an MGet. On success Object holds
// the zero-copy handle (the caller Releases it); otherwise Err carries
// the per-key failure (ErrMiss, ErrLost, ErrTimeout, ctx.Err(), ...).
type GetResult struct {
	Key    string
	Object *Object
	Err    error
}

// PutResult is one key's outcome of an MPut.
type PutResult struct {
	Key string
	Err error
}

// MGet fetches a batch of keys. Keys are grouped by their owning proxy
// (the consistent-hashing ring) and each group rides its proxy
// connection as one pipelined burst: every GET frame is written back to
// back down the single writer and the DATA fan-in — many-stripe
// objects included — is collected off one shared response channel, so
// N keys cost one windowed round trip per owning proxy instead of N
// sequential ones. Results are positionally aligned with keys; each
// successful Object must be Released by the caller. Keys the burst
// could not serve (a transient failure, a redirect) continue on the
// single-key read state machine.
func (c *Client) MGet(ctx context.Context, keys ...string) []GetResult {
	res := make([]GetResult, len(keys))
	groups := make(map[string][]int)
	for i, k := range keys {
		res[i].Key = k
		c.stats.Gets.Add(1)
		info, err := c.proxyFor(k)
		if err != nil {
			res[i].Err = err
			continue
		}
		groups[info.Addr] = append(groups[info.Addr], i)
	}
	var wg sync.WaitGroup
	for addr, idxs := range groups {
		wg.Add(1)
		go func(addr string, idxs []int) {
			defer wg.Done()
			c.mgetBurst(ctx, addr, keys, idxs, res)
		}(addr, idxs)
	}
	wg.Wait()
	// A transient per-key failure (a backup swap mid-burst) continues on
	// getWithRetries with the burst counted as its first attempt, so a
	// key gets the same getRetries total attempts it would on the
	// GetObject path. WRONG_OWNER results (an epoch bump mid-burst) and
	// a dead connection refresh the ring view once and re-run the full
	// single-key machinery, which follows any further redirect or
	// fallback hop itself.
	refreshed := false
	for i := range res {
		var wo *wrongOwnerError
		hint := ""
		switch err := res[i].Err; {
		case errors.Is(err, errTransient), errors.Is(err, errBusyWrite):
			res[i].Object, res[i].Err = c.getWithRetries(ctx, keys[i], wholeObject, err)
			continue
		case errors.As(err, &wo):
			c.stats.Redirects.Add(1)
			hint = wo.owner
		case errors.Is(err, errConnClosed):
			// The burst's proxy died or left the cluster mid-flight.
		default:
			continue
		}
		if !refreshed {
			c.refreshRing(ctx, hint)
			refreshed = true
		}
		res[i].Object, res[i].Err = c.getWithRetries(ctx, keys[i], wholeObject, nil)
	}
	return res
}

// mgetKey tracks one key of an MGet burst through its DATA fan-in.
type mgetKey struct {
	idx  int // position in keys/res
	f    fold
	done bool // result recorded; further frames are stragglers
}

// mgetBurst runs one proxy's share of an MGet: register every key's
// seq on one shared channel, write all GET frames, then collect.
func (c *Client) mgetBurst(ctx context.Context, addr string, keys []string, idxs []int, res []GetResult) {
	fail := func(err error) {
		for _, i := range idxs {
			res[i].Err = err
		}
	}
	pc, err := c.conn(addr)
	if err != nil {
		fail(err)
		return
	}
	// The shared channel starts sized for single-stripe replies: up to
	// d+p DATA frames plus a MISS/ERR per key. Many-stripe replies grow
	// it (proxyConn.grow).
	ch := make(chan *protocol.Message, len(idxs)*(c.codec.TotalShards()+2))
	states := make(map[uint64]*mgetKey, len(idxs))
	defer func() {
		for seq, st := range states {
			pc.deregister(seq)
			if !st.done {
				st.f.obj.Release()
			}
		}
		pc.drain(ch)
	}()

	// One windowed burst: all GET frames are staged back to back under
	// one Pin window and the closing Flush ships them in one write —
	// which must happen before the collect loop blocks on responses.
	active := 0
	pc.conn.Pin()
	for _, i := range idxs {
		seq := c.seq.Add(1)
		if !pc.registerWith(seq, ch) {
			res[i].Err = errConnClosed
			continue
		}
		if err := pc.conn.Forward(protocol.TGet, seq, keys[i], "", nil, nil); err != nil {
			pc.deregister(seq)
			res[i].Err = connErr("get", err)
			continue
		}
		states[seq] = &mgetKey{idx: i, f: newFold()}
		active++
	}
	if err := pc.conn.Flush(); err != nil {
		fail(err)
		return
	}

	// Any abandon (timeout or cancellation) CANCELs the keys still
	// collecting so the proxy releases their window slots.
	abandon := func(err error) {
		for seq, st := range states {
			if !st.done {
				pc.cancel(seq)
			}
		}
		c.finishBurstKeys(states, res, err)
	}
	// One timer covers the whole collect (fixed deadline).
	timeout := c.cfg.Clock.After(c.cfg.RequestTimeout)
	for in := ch; active > 0; {
		select {
		case msg, ok := <-in:
			if !ok {
				if in = pc.successor(in); in != nil {
					continue
				}
				c.finishBurstKeys(states, res, errConnClosed)
				return
			}
			st := states[msg.Seq]
			if st == nil || st.done {
				msg.Free() // straggler of a served key, or a stale frame
				continue
			}
			// The frame folder is the single-key one; only the result
			// recording differs. (Unlike the single-key path, MGet does
			// not re-insert missing chunks; the burst stays read-only.)
			done, err := c.applyFrame(&st.f, keys[st.idx], wholeObject, msg)
			if !done {
				continue
			}
			st.done = true
			active--
			if err != nil {
				if errors.Is(err, ErrMiss) {
					// Final for the burst: misses are not retried below.
					c.stats.ColdMisses.Add(1)
				}
				st.f.obj.Release()
				res[st.idx].Err = err
			} else {
				res[st.idx].Object = st.f.obj
			}
		case <-ctx.Done():
			abandon(ctx.Err())
			return
		case <-timeout:
			abandon(ErrTimeout)
			return
		}
	}
}

// finishBurstKeys records err for every key of a burst still pending
// and releases their partial objects.
func (c *Client) finishBurstKeys(states map[uint64]*mgetKey, res []GetResult, err error) {
	for _, st := range states {
		if !st.done {
			st.done = true
			st.f.obj.Release()
			res[st.idx].Err = err
		}
	}
}

// MPut stores a batch of key/value pairs. Pairs are grouped by owning
// proxy; each group's chunks — every pair's d+p shard SETs — are
// written down the proxy connection back to back as one pipelined
// burst and acknowledged off one shared response channel, so N puts
// cost one windowed round trip per owning proxy. Results are
// positionally aligned with pairs.
func (c *Client) MPut(ctx context.Context, pairs ...KV) []PutResult {
	res := make([]PutResult, len(pairs))
	groups := make(map[string][]int)
	for i, kv := range pairs {
		res[i].Key = kv.Key
		if len(kv.Value) == 0 {
			res[i].Err = errors.New("client: empty value")
			continue
		}
		c.stats.Puts.Add(1)
		info, err := c.proxyFor(kv.Key)
		if err != nil {
			res[i].Err = err
			continue
		}
		groups[info.Addr] = append(groups[info.Addr], i)
	}
	var wg sync.WaitGroup
	for addr, idxs := range groups {
		wg.Add(1)
		go func(addr string, idxs []int) {
			defer wg.Done()
			c.mputBurst(ctx, addr, pairs, idxs, res)
		}(addr, idxs)
	}
	wg.Wait()
	// Pairs refused with WRONG_OWNER (an epoch bump mid-burst) refresh
	// the ring view once and retry on the single-key path, which follows
	// any further redirect itself. The proxy failed the whole refused
	// generation, so the retry writes from a clean slate.
	refreshed := false
	for i := range res {
		var wo *wrongOwnerError
		hint := ""
		switch {
		case errors.As(res[i].Err, &wo):
			c.stats.Redirects.Add(1)
			hint = wo.owner
		case errors.Is(res[i].Err, errConnClosed):
			// The burst's proxy died or left the cluster mid-flight.
		case errors.Is(res[i].Err, errTransient), errors.Is(res[i].Err, errBusyWrite):
			// Transient generation failure mid-burst: retry the pair on
			// the single-key path (which budgets its own retries) without
			// a ring refresh.
			res[i].Err = c.putObject(ctx, pairs[i].Key, pairs[i].Value)
			continue
		default:
			continue
		}
		if !refreshed {
			c.refreshRing(ctx, hint)
			refreshed = true
		}
		res[i].Err = c.putObject(ctx, pairs[i].Key, pairs[i].Value)
	}
	return res
}

// mputChunk links one in-flight chunk SET back to its pair.
type mputChunk struct {
	resIdx int
	chunk  int
}

// mputBurst runs one proxy's share of an MPut.
func (c *Client) mputBurst(ctx context.Context, addr string, pairs []KV, idxs []int, res []PutResult) {
	info := c.proxyInfo(addr)
	pc, err := c.conn(addr)
	if err != nil {
		for _, i := range idxs {
			res[i].Err = err
		}
		return
	}
	total := c.codec.TotalShards()
	d := c.codec.DataShards()
	// The op budget starts before encoding, as on the single-key path.
	deadline := c.cfg.Clock.Now().Add(c.cfg.RequestTimeout)

	ch := make(chan *protocol.Message, len(idxs)*total+1)
	seqIdx := make(map[uint64]mputChunk, len(idxs)*total)
	defer func() {
		for seq := range seqIdx {
			pc.deregister(seq)
		}
		pc.drain(ch)
	}()

	// Encode-and-send one pair at a time: Forward copies the payload
	// into the socket synchronously, so each pair's pooled shard set is
	// recycled as soon as its frames are written — the burst holds one
	// shard set at peak, not the whole batch, and the writer still sees
	// every SET back to back before any ACK is read.
	shards := make([][]byte, total)
	var args [9]int64
	for _, i := range idxs {
		value := pairs[i].Value
		shardSize := c.codec.ShardSize(len(value))
		for j := range shards {
			shards[j] = bufpool.Get(shardSize)
		}
		if err := c.codec.SplitInto(value, shards); err != nil {
			res[i].Err = err
			bufpool.PutAll(shards)
			continue
		}
		if err := c.codec.Encode(shards); err != nil {
			res[i].Err = err
			bufpool.PutAll(shards)
			continue
		}
		nodes := c.placement(info.PoolSize, total)
		gen := c.putGen.Add(1)
		// One Pin window per pair: the pair's d+p SETs coalesce into
		// O(1) writes, while other ops sharing the connection are not
		// stalled behind the next pair's encode.
		pc.conn.Pin()
		for j, shard := range shards {
			seq := c.seq.Add(1)
			if !pc.registerWith(seq, ch) {
				res[i].Err = errConnClosed
				break
			}
			args = [9]int64{
				int64(j), int64(total), int64(nodes[j]),
				int64(len(value)), int64(d), gen, 0,
				0, protocol.ChunkSum(pairs[i].Key, j, shard),
			}
			if err := pc.conn.Forward(protocol.TSet, seq, pairs[i].Key, "", args[:], shard); err != nil {
				pc.deregister(seq)
				res[i].Err = connErr(fmt.Sprintf("put chunk %d", j), err)
				break
			}
			seqIdx[seq] = mputChunk{resIdx: i, chunk: j}
		}
		pc.conn.Flush()
		bufpool.PutAll(shards)
	}

	// The ack collection is the shared collectAcks loop (same machinery
	// as the single-key putChunks); it leaves exactly the unanswered
	// chunks in seqIdx, already CANCELled at the proxy on abandon, so
	// the per-pair failures fall out of the survivor set.
	if err := collectAcks(c, ctx, pc, ch, seqIdx, deadline, func(mc mputChunk, resp *protocol.Message) {
		switch {
		case resp.Type == protocol.TWrongOwner:
			// The redirect outranks any per-chunk error already
			// recorded: the pair retries wholesale after the burst.
			if _, isWo := res[mc.resIdx].Err.(*wrongOwnerError); !isWo {
				res[mc.resIdx].Err = &wrongOwnerError{version: uint64(resp.Arg(0)), owner: resp.Addr}
			}
		case resp.Type == protocol.TErr && resp.Arg(0) == protocol.TransientFlag:
			// Transient generation failure: the pair retries wholesale on
			// the single-key path after the burst.
			if res[mc.resIdx].Err == nil {
				res[mc.resIdx].Err = errTransient
			}
		case resp.Type != protocol.TAck && res[mc.resIdx].Err == nil:
			res[mc.resIdx].Err = fmt.Errorf("chunk %d: %w: %s", mc.chunk, ErrRejected, resp.Payload)
		}
	}); err != nil {
		c.failPendingPuts(seqIdx, res, err)
	}
}

// failPendingPuts records err for every pair that still has chunks in
// flight (first error wins per pair).
func (c *Client) failPendingPuts(seqIdx map[uint64]mputChunk, res []PutResult, err error) {
	for _, mc := range seqIdx {
		if res[mc.resIdx].Err == nil {
			res[mc.resIdx].Err = err
		}
	}
}
