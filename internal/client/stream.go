package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"infinicache/internal/bufpool"
	"infinicache/internal/protocol"
)

// Streaming object plane, client side.
//
// PutReader encodes and ships an object of known size as a sequence of
// stripes — each an independent RS(d+p) sub-object of at most
// StripeShard×d data bytes — so only a small window of stripes is ever
// resident, not the whole object. Stripe 0 (the head, under the
// object's own key) carries the stream geometry and commits fully
// before any sibling is sent: the head's arrival atomically retires the
// previous version of the key (the proxy drops the old family), and
// doing that while a new sibling SET is in flight would drop the
// sibling too.
//
// Reads of streamed objects ride the one read path (getWithRetries):
// GetObject is the range [0, size) and fans each stripe out like any
// single-stripe object, while GetRange fetches only the data chunks the
// range intersects (protocol.PlanRange, executed proxy-side) — a 1 MiB
// read of a 1 GiB object costs ⌈range/shard⌉ chunk fetches, not d.

// putWindow is how many stripes beyond the head a streaming PUT keeps
// in flight at once. Peak client memory is about (putWindow+1) stripe
// buffers plus their in-flight shard sets — a few stripe windows,
// independent of object size.
const putWindow = 2

// stripeData is the data bytes per full stripe under this client's
// geometry.
func (c *Client) stripeData() int64 {
	return c.cfg.StripeShard * int64(c.codec.DataShards())
}

// PutReader streams an object of exactly size bytes from r into the
// cache without materialising it: bytes are read stripe by stripe, each
// stripe erasure-coded and shipped while at most putWindow successors
// are in flight. An object no larger than one stripe is stored exactly
// as PutCtx stores it; either way GetObject, GetRange and MGet read it
// back. A failed stream deletes whatever partial stripe family landed,
// so the key never reads half-written.
func (c *Client) PutReader(ctx context.Context, key string, size int64, r io.Reader) error {
	if size <= 0 {
		return errors.New("client: empty value")
	}
	c.stats.Puts.Add(1)
	stripeData := c.stripeData()
	if size <= stripeData {
		buf := bufpool.Get(int(size))
		defer bufpool.Put(buf)
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("client: stream read: %w", err)
		}
		return c.putValue(ctx, key, key, buf, nil)
	}

	// The head ships first and alone, carrying the stream geometry.
	head := bufpool.Get(int(stripeData))
	_, err := io.ReadFull(r, head)
	if err == nil {
		err = c.putValue(ctx, key, key, head, []int64{size, stripeData})
	} else {
		err = fmt.Errorf("client: stream read: %w", err)
	}
	bufpool.Put(head)
	if err != nil {
		return err
	}

	// Stripes 1..n-1 ride a bounded window: reads stay sequential on r
	// while up to putWindow stripes encode, ship and await acks
	// concurrently (per-stripe generations are independent).
	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, putWindow)
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	for s, n := 1, protocol.StripeCount(size, stripeData); s < n && !failed(); s++ {
		slen := min(stripeData, size-int64(s)*stripeData)
		buf := bufpool.Get(int(slen))
		if _, err := io.ReadFull(r, buf); err != nil {
			bufpool.Put(buf)
			fail(fmt.Errorf("client: stream read: %w", err))
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(s int, buf []byte) {
			defer func() {
				bufpool.Put(buf)
				<-sem
				wg.Done()
			}()
			if err := c.putValue(ctx, key, protocol.StripeKey(key, s), buf, nil); err != nil {
				fail(fmt.Errorf("client: stripe %d: %w", s, err))
			}
		}(s, buf)
	}
	wg.Wait()
	if firstErr != nil {
		// Best effort, on a fresh context (the stream's may be the reason
		// it failed): the head must not linger over missing stripes, and
		// deleting it drops whatever siblings already landed.
		c.DelCtx(context.WithoutCancel(ctx), key)
		return firstErr
	}
	return nil
}

// GetRange fetches bytes [off, off+n) of an object into a freshly
// allocated buffer. The range is clamped to the object ([off, size)):
// a read past EOF returns the bytes that exist, empty included, never
// an error. Only the data chunks the clamped range intersects are
// fetched; a stripe whose planned chunk misses, times out or fails its
// checksum falls back, within the same request, to gathering d chunks
// of that stripe and reconstructing. Works on streamed and PutCtx
// objects alike.
func (c *Client) GetRange(ctx context.Context, key string, off, n int64) ([]byte, error) {
	c.stats.Gets.Add(1)
	if n <= 0 {
		return []byte{}, nil
	}
	obj, err := c.getWithRetries(ctx, key, readSpan{off: off, n: n, ranged: true}, nil)
	if err != nil {
		return nil, err
	}
	data := obj.Bytes()
	obj.Release()
	return data, nil
}
