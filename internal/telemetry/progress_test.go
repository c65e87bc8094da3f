package telemetry

import (
	"testing"
)

func TestProgressBroadcast(t *testing.T) {
	p := NewProgress()
	ch, cancel := p.Subscribe(16)
	defer cancel()

	p.Publish(Frame{Type: "chunk", Insts: 4096})
	p.Publish(Frame{Type: "chunk", Insts: 8192})
	p.Close()

	var got []Frame
	for f := range ch {
		got = append(got, f)
	}
	if len(got) != 2 {
		t.Fatalf("got %d frames, want 2", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Errorf("sequence numbers %d,%d, want 1,2", got[0].Seq, got[1].Seq)
	}
	if got[0].Insts != 4096 || got[1].Insts != 8192 {
		t.Errorf("payload mismatch: %+v", got)
	}
}

// A full subscriber buffer must never block Publish — the frame is dropped
// and counted instead.
func TestProgressSlowSubscriberDrops(t *testing.T) {
	p := NewProgress()
	ch, cancel := p.Subscribe(1)
	defer cancel()

	p.Publish(Frame{Type: "chunk"})
	p.Publish(Frame{Type: "chunk"}) // buffer full: dropped
	if got := p.Dropped(); got != 1 {
		t.Errorf("Dropped = %d, want 1", got)
	}
	f := <-ch
	if f.Seq != 1 {
		t.Errorf("delivered frame Seq = %d, want 1", f.Seq)
	}
}

func TestProgressSubscribeAfterClose(t *testing.T) {
	p := NewProgress()
	p.Close()
	p.Close() // idempotent
	ch, cancel := p.Subscribe(4)
	defer cancel()
	if _, ok := <-ch; ok {
		t.Error("subscription to closed broadcaster delivered a frame; want immediate close")
	}
	p.Publish(Frame{Type: "chunk"}) // no-op, must not panic
}

func TestProgressCancelIdempotent(t *testing.T) {
	p := NewProgress()
	_, cancel := p.Subscribe(1)
	cancel()
	cancel()
	if n := p.nsubs.Load(); n != 0 {
		t.Errorf("%d subscribers after cancel", n)
	}
	p.Publish(Frame{Type: "chunk"}) // no subscribers: fast path
}

// The no-subscriber Publish path is on the hot chunk loop and must be
// allocation-free (acceptance criterion).
func TestPublishNoSubscriberAllocs(t *testing.T) {
	p := NewProgress()
	f := Frame{Type: "chunk", Insts: 4096, Fuel: 1 << 20}
	if n := testing.AllocsPerRun(100, func() { p.Publish(f) }); n != 0 {
		t.Errorf("Publish(no subscribers): %v allocs/op, want 0", n)
	}
}

func BenchmarkPublishNoSubscriber(b *testing.B) {
	p := NewProgress()
	f := Frame{Type: "chunk", Insts: 4096}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Publish(f)
	}
}
