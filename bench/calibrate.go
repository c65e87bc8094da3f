package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Machine-speed calibration. The benchmark shares its host with other
// tenants, whose load slows the CPU this process gets — and the process's
// own CPU time with it — by 10% to 2× for minutes at a time, for every
// workload alike. A fixed reference computation that uses none of the
// repository's code is timed all through each run, and every reported
// time is scaled to a machine on which the reference takes calibrationRef;
// the scale and the raw round times stay in the run document.
//
// The reference is insert-and-lookup work on two reused maps, one that
// fits a core's L2 cache and one several times larger. In ten-minute
// probes on a 2-CPU sandbox whose load swung build-and-simulate time by up
// to 2×, dividing 10-second windows by it cut their spread between
// quartiles from ~60% to ~9% for simulation and from ~37% to ~5% for
// compilation. A SHA-256 loop tracked neither and an interpreter loop only
// compilation; allocation tracked both, but its timing depends on the
// collector and so on the heap the workload leaves behind.
const (
	// calibrationRef is the reference's time at reference speed, about
	// its time on an idle 2-CPU Xeon sandbox.
	calibrationRef = 2.5e-3
	// calibrationEvery is the least time between two ticks' timings.
	calibrationEvery = 250 * time.Millisecond
	// calibrationWindow is how far around an interval the timings that
	// scale it are taken from: the speed drifts over seconds, while one
	// timing is noisy.
	calibrationWindow = 2500 * time.Millisecond
	// calibrationNear is the fewest timings a scale is taken from.
	calibrationNear = 9
)

// calibrator collects timings of the reference. It is safe for concurrent
// use.
type calibrator struct {
	mu         sync.Mutex
	small, big map[int]int
	samples    []sample // in time order
	last       time.Time
	spent      time.Duration // time spent timing the reference
}

// sample is one timing of the reference, in seconds, taken at at.
type sample struct {
	at   time.Time
	secs float64
}

// tick times the reference once, unless it was timed less than
// calibrationEvery ago. Workloads call it between ops, where nothing of
// theirs runs.
func (c *calibrator) tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if time.Since(c.last) >= calibrationEvery {
		c.timeLocked()
	}
}

// measure times the reference now.
func (c *calibrator) measure() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeLocked()
}

// timeLocked takes one timing, the geometric mean of the two maps' times.
// Each timing starts from whatever the workload left in the caches, as in
// the probes that chose the reference.
func (c *calibrator) timeLocked() {
	t0 := time.Now()
	if c.small == nil {
		// Sized for their contents, so filling them never allocates and
		// the collector stays out of the timing.
		c.small, c.big = make(map[int]int, 20_000), make(map[int]int, 200_000)
	}
	small := fillAndProbe(c.small, 20_000, 40_000)
	big := fillAndProbe(c.big, 100_000, 100_000)
	c.last = time.Now()
	c.samples = append(c.samples, sample{c.last, math.Sqrt(small * big)})
	c.spent += c.last.Sub(t0)
}

var calibrationSink int

// fillAndProbe refills m with n keys, looks up probes keys, and returns
// the seconds it took.
func fillAndProbe(m map[int]int, n, probes int) float64 {
	t0 := time.Now()
	clear(m)
	for i := 0; i < n; i++ {
		m[i*13] = i
	}
	s := 0
	for i := 0; i < probes; i++ {
		s += m[i*7]
	}
	calibrationSink += s
	return time.Since(t0).Seconds()
}

// timeSpent is the total time the calibrator has taken so far.
func (c *calibrator) timeSpent() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spent
}

// scale converts this run's seconds into reference-speed seconds.
func (c *calibrator) scale() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	secs := make([]float64, len(c.samples))
	for i, s := range c.samples {
		secs[i] = s.secs
	}
	return calibrationRef / median(secs)
}

// scaleAt converts seconds spent between a and b into reference-speed
// seconds, from the timings taken within calibrationWindow of that
// interval, or from the calibrationNear timings nearest its middle when
// those are fewer: the machine's speed changes within a run too.
func (c *calibrator) scaleAt(a, b time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var secs []float64
	for _, s := range c.samples {
		if !s.at.Before(a.Add(-calibrationWindow)) && !s.at.After(b.Add(calibrationWindow)) {
			secs = append(secs, s.secs)
		}
	}
	if len(secs) < calibrationNear {
		mid := a.Add(b.Sub(a) / 2)
		dist := func(s sample) time.Duration { return max(s.at.Sub(mid), mid.Sub(s.at)) }
		near := append([]sample(nil), c.samples...)
		sort.Slice(near, func(i, j int) bool { return dist(near[i]) < dist(near[j]) })
		secs = secs[:0]
		for _, s := range near[:min(calibrationNear, len(near))] {
			secs = append(secs, s.secs)
		}
	}
	return calibrationRef / median(secs)
}
