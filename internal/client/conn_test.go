package client

import (
	"testing"
	"time"

	"infinicache/internal/protocol"
)

// TestWaiterGrowsInOrder pins the reply channel contract the one read
// path relies on: a reply with far more frames than the waiter was
// registered for — a many-stripe read — loses none of them and keeps
// their order, and releasing the seq forgets the growth chain.
func TestWaiterGrowsInOrder(t *testing.T) {
	const frames = 200
	fp := newFakeProxy(t, func(c *protocol.Conn, m *protocol.Message) {
		if m.Type == protocol.TGet {
			for i := 0; i < frames; i++ {
				c.Forward(protocol.TAck, m.Seq, m.Key, "", []int64{int64(i)}, nil)
			}
		}
		m.Recycle()
	})
	c := testClient(t, fp.addr)
	pc, err := c.conn(fp.addr)
	if err != nil {
		t.Fatal(err)
	}
	seq := c.seq.Add(1)
	ch := pc.register(seq, 2)
	if err := pc.conn.Forward(protocol.TGet, seq, "k", "", nil, nil); err != nil {
		t.Fatal(err)
	}
	// Nobody reads yet: the third frame already finds the channel full.
	for grown := 0; grown == 0; time.Sleep(time.Millisecond) {
		pc.mu.Lock()
		grown = len(pc.grown)
		pc.mu.Unlock()
	}
	timeout := time.After(10 * time.Second)
	for in, want := ch, int64(0); want < frames; {
		select {
		case m, ok := <-in:
			if !ok {
				if in = pc.successor(in); in == nil {
					t.Fatalf("channel closed after %d of %d frames", want, frames)
				}
				continue
			}
			if got := m.Arg(0); got != want {
				t.Fatalf("frame %d arrived as frame %d", got, want)
			}
			m.Free()
			want++
		case <-timeout:
			t.Fatalf("received %d of %d frames", want, frames)
		}
	}
	pc.release(seq, ch)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if len(pc.grown) != 0 {
		t.Fatalf("%d grown channels still remembered after release", len(pc.grown))
	}
}
