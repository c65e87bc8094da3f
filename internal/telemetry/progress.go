package telemetry

import (
	"sync"
	"sync/atomic"
)

// Frame is one NDJSON progress event for a job. Type discriminates the
// payload; unused fields are omitted from the JSON encoding. Sequence
// numbers are per-job and strictly increasing in publish order, so a
// consumer can detect drops (buffered subscribers are never blocked on —
// a slow reader loses frames, counted in Progress.Dropped).
type Frame struct {
	Type  string `json:"type"`            // chunk | bench | state | heartbeat | done
	Job   string `json:"job,omitempty"`   // job ID
	Seq   int64  `json:"seq"`             // per-job publish sequence
	State string `json:"state,omitempty"` // job state for state/done frames
	Error string `json:"error,omitempty"` // terminal error, done frames only
	Insts int64  `json:"insts,omitempty"` // instructions replayed so far (chunk frames)
	Fuel  int64  `json:"fuel,omitempty"`  // fuel budget for the run (chunk frames)
	Bench string `json:"bench,omitempty"`
	Done  int    `json:"done,omitempty"`  // grid cells completed (bench frames)
	Total int    `json:"total,omitempty"` // grid cell total (bench frames)
}

// Progress broadcasts Frames to any number of subscribers. It follows the
// same zero-cost-when-off contract as pipeline.EventSink: Publish with no
// subscribers is a single atomic load and returns without allocating or
// taking the lock, so instrumenting the hot chunk loop is free unless
// someone is actually watching (asserted by BenchmarkPublishNoSubscriber).
type Progress struct {
	nsubs   atomic.Int32
	seq     atomic.Int64
	dropped atomic.Int64

	mu     sync.Mutex
	subs   map[int]chan Frame
	nextID int
	closed bool
}

// NewProgress returns a broadcaster with no subscribers.
func NewProgress() *Progress {
	return &Progress{subs: map[int]chan Frame{}}
}

// Publish stamps f with the next sequence number and delivers it to every
// subscriber. Sends never block: a subscriber whose buffer is full loses
// the frame (recorded in Dropped). With zero subscribers this is one
// atomic load.
func (p *Progress) Publish(f Frame) {
	if p.nsubs.Load() == 0 {
		return
	}
	f.Seq = p.seq.Add(1)
	p.mu.Lock()
	for _, ch := range p.subs {
		select {
		case ch <- f:
		default:
			p.dropped.Add(1)
		}
	}
	p.mu.Unlock()
}

// Subscribe registers a buffered subscriber channel and returns it with a
// cancel function. The channel is closed when cancel is called or when the
// broadcaster is Closed (job reached a terminal state). Subscribing to an
// already-closed broadcaster returns an immediately-closed channel, so
// late subscribers see EOF rather than hanging.
func (p *Progress) Subscribe(buffer int) (<-chan Frame, func()) {
	if buffer < 1 {
		buffer = 1
	}
	ch := make(chan Frame, buffer)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	id := p.nextID
	p.nextID++
	p.subs[id] = ch
	p.nsubs.Add(1)
	p.mu.Unlock()

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			p.mu.Lock()
			if _, ok := p.subs[id]; ok {
				delete(p.subs, id)
				p.nsubs.Add(-1)
				close(ch)
			}
			p.mu.Unlock()
		})
	}
	return ch, cancel
}

// Close marks the stream finished and closes all subscriber channels.
// Publish after Close is a no-op. Idempotent.
func (p *Progress) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for id, ch := range p.subs {
		delete(p.subs, id)
		close(ch)
	}
	p.nsubs.Store(0)
}

// Dropped returns the number of frames lost to full subscriber buffers.
func (p *Progress) Dropped() int64 { return p.dropped.Load() }
