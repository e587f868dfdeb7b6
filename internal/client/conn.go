package client

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"infinicache/internal/protocol"
)

// connErr classifies a raw transport error from a proxy connection.
// Frame-limit violations (oversized payload/key, too many args) are the
// caller's bug and pass through untouched; everything else — a
// net.OpError from a write against a crashed proxy, an injected hangup,
// an EOF mid-stream — means the connection died, which most likely
// means the proxy left the cluster. Those wrap into errConnClosed so
// the retry loops above refresh the ring and re-route instead of
// burning the transient-failure budget (PR 8 covered the dial path;
// this covers every read/write-side escape).
func connErr(op string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, protocol.ErrPayloadTooLarge) ||
		errors.Is(err, protocol.ErrKeyTooLong) ||
		errors.Is(err, protocol.ErrTooManyArgs) {
		return err
	}
	if errors.Is(err, errConnClosed) {
		return err
	}
	return fmt.Errorf("%w: %s: %v", errConnClosed, op, err)
}

// proxyConn is one connection to a proxy with a response dispatcher: a
// single reader goroutine routes frames to per-request channels by
// sequence number (a GET receives several TData frames on one seq, and
// a pipelined PUT routes many seqs onto one shared channel).
//
// A waiter channel holds every frame its seqs are sent: when the read
// loop finds one full — a read of a many-stripe object outrunning its
// reader — it re-registers the seqs on a channel twice the size and
// closes the full one. The reader drains the closed channel, then
// continues on the replacement successor returns, so frames keep their
// order and none is dropped. A GET's channel can therefore start at the
// size of a single-stripe reply.
type proxyConn struct {
	conn *protocol.Conn

	mu      sync.Mutex
	waiters map[uint64]chan *protocol.Message
	grown   map[chan *protocol.Message]chan *protocol.Message
	closed  bool
}

// conn returns (dialing if needed) the connection to addr. A cached
// connection that died (proxy left the cluster, network blip) is
// evicted and redialed rather than handed back — retry loops above get
// a live socket, not a guaranteed errConnClosed.
func (c *Client) conn(addr string) (*proxyConn, error) {
	c.mu.Lock()
	if pc, ok := c.conns[addr]; ok {
		if !pc.isClosed() {
			c.mu.Unlock()
			return pc, nil
		}
		delete(c.conns, addr)
	}
	c.mu.Unlock()

	dial := c.cfg.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	raw, err := dial(addr)
	if err != nil {
		// An unreachable proxy reads the same as a connection that died:
		// most likely it left the cluster, so wrap in errConnClosed and
		// let the retry loops above refresh the ring and re-route.
		return nil, fmt.Errorf("%w: dial %s: %v", errConnClosed, addr, err)
	}
	pconn := protocol.NewConn(raw)
	if err := pconn.Send(&protocol.Message{Type: protocol.TJoinClient}); err != nil {
		pconn.Close()
		return nil, err
	}
	pc := &proxyConn{
		conn:    pconn,
		waiters: make(map[uint64]chan *protocol.Message),
	}
	go pc.readLoop()

	c.mu.Lock()
	defer c.mu.Unlock()
	if existing, ok := c.conns[addr]; ok && !existing.isClosed() {
		// Raced with another goroutine; keep theirs.
		go pc.close()
		return existing, nil
	}
	c.conns[addr] = pc
	return pc, nil
}

// readLoop routes inbound frames to their waiters. Delivery happens
// under the mutex so a deregister-then-drain in release observes every
// frame routed to its channel: once deregister returns, no more frames
// can land there. Frames with no waiter (responses to abandoned
// requests) recycle their pooled payloads here — this hop consumed
// them.
func (pc *proxyConn) readLoop() {
	for {
		m, err := pc.conn.Recv()
		if err != nil {
			pc.close()
			return
		}
		pc.mu.Lock()
		if ch := pc.waiters[m.Seq]; ch != nil {
			select {
			case ch <- m:
			default:
				pc.grow(ch) <- m
			}
			m = nil // delivered; the waiter owns the payload now
		}
		pc.mu.Unlock()
		if m != nil {
			m.Free()
		}
	}
}

// grow replaces the full waiter channel ch with one twice its size for
// every seq registered on it, closes ch and returns the replacement.
// Called with mu held.
func (pc *proxyConn) grow(ch chan *protocol.Message) chan *protocol.Message {
	next := make(chan *protocol.Message, 2*cap(ch)+1)
	for seq, w := range pc.waiters {
		if w == ch {
			pc.waiters[seq] = next
		}
	}
	if pc.grown == nil {
		pc.grown = make(map[chan *protocol.Message]chan *protocol.Message)
	}
	pc.grown[ch] = next
	close(ch)
	return next
}

// successor returns the channel that replaced ch when the read loop
// found it full, or nil when ch was closed because the connection died.
// A reader whose channel reports closed drains nothing more from it and
// continues on the successor.
func (pc *proxyConn) successor(ch chan *protocol.Message) chan *protocol.Message {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.grown[ch]
}

// register allocates a response channel for seq with the given buffer,
// sized for the frames the proxy usually sends on that seq (it grows on
// demand). On an already-closed connection the channel comes back
// closed.
func (pc *proxyConn) register(seq uint64, buf int) chan *protocol.Message {
	ch := make(chan *protocol.Message, buf)
	if !pc.registerWith(seq, ch) {
		close(ch)
	}
	return ch
}

// registerWith routes seq's responses onto an existing channel, letting
// one awaiter multiplex many in-flight requests (the pipelined PUT
// path). A channel shared across seqs must be sized for all of them.
// Returns false when the connection is already closed (no frame will
// ever be delivered); the channel is left untouched since other seqs
// may still share it.
func (pc *proxyConn) registerWith(seq uint64, ch chan *protocol.Message) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.closed {
		return false
	}
	pc.waiters[seq] = ch
	return true
}

// cancel tells the proxy to abandon an in-flight request (fire and
// forget: no reply comes; errors just mean the connection is dying,
// which abandons the request anyway). The caller still deregisters and
// drains locally — CANCEL only releases the proxy-side window slots.
func (pc *proxyConn) cancel(seq uint64) {
	pc.conn.Forward(protocol.TCancel, seq, "", "", nil, nil)
}

// isClosed reports whether the connection's read loop has died.
func (pc *proxyConn) isClosed() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.closed
}

func (pc *proxyConn) deregister(seq uint64) {
	pc.mu.Lock()
	delete(pc.waiters, seq)
	pc.mu.Unlock()
}

// drain empties whatever frames are still buffered on a waiter channel
// and its successors after its seqs were deregistered, returning their
// pooled payloads and forgetting the growth chain. Safe on a closed
// channel.
func (pc *proxyConn) drain(ch chan *protocol.Message) {
	for ch != nil {
		select {
		case m, ok := <-ch:
			if ok {
				m.Free()
				continue
			}
			pc.mu.Lock()
			next := pc.grown[ch]
			delete(pc.grown, ch)
			pc.mu.Unlock()
			ch = next
		default:
			return
		}
	}
}

// release ends one request: deregister its seq and recycle any frames
// (straggler DATA chunks, stale errors) still parked on the channel.
func (pc *proxyConn) release(seq uint64, ch chan *protocol.Message) {
	pc.deregister(seq)
	pc.drain(ch)
}

func (pc *proxyConn) close() {
	pc.mu.Lock()
	if pc.closed {
		pc.mu.Unlock()
		return
	}
	pc.closed = true
	// Waiter channels may be shared across seqs (pipelined PUT);
	// dedupe before closing.
	seen := make(map[chan *protocol.Message]bool, len(pc.waiters))
	for _, ch := range pc.waiters {
		seen[ch] = true
	}
	pc.waiters = make(map[uint64]chan *protocol.Message)
	pc.mu.Unlock()
	pc.conn.Close()
	for ch := range seen {
		close(ch)
	}
}
