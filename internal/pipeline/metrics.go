package pipeline

import (
	"elag/internal/addrpred"
	"elag/internal/bpred"
	"elag/internal/cache"
	"elag/internal/earlycalc"
	"elag/internal/mech"
)

// PathStats counts the behaviour of one early-address-generation path.
type PathStats struct {
	// Eligible counts dynamic loads steered to this path.
	Eligible int64
	// Speculated counts loads that launched a speculative cache access.
	Speculated int64
	// Forwarded counts loads whose speculative data was forwarded — the
	// full forwarding formula of Section 3.2 evaluated true.
	Forwarded int64
	// Failure-term breakdown for speculations that did not forward; a
	// single failed speculation may set several of these.
	NoPrediction   int64 // table miss or unconfident stride (ld_p only)
	RegMiss        int64 // base register not cached (ld_e only)
	RegInterlock   int64 // R_addr interlock: base value still in flight
	MemInterlock   int64 // pending-store conflict
	NoPort         int64 // no data-cache port available
	CacheMiss      int64 // speculative access missed the cache
	AddrMispredict int64 // PA != CA (ld_p only)
}

// ForwardRate returns Forwarded/Eligible.
func (p PathStats) ForwardRate() float64 {
	if p.Eligible == 0 {
		return 0
	}
	return float64(p.Forwarded) / float64(p.Eligible)
}

// Metrics is the result of one timing-simulation run.
type Metrics struct {
	Cycles       int64
	Insts        int64
	Loads        int64
	Stores       int64
	Branches     int64
	Mispredicts  int64
	ICacheStats  cache.Stats
	DCacheStats  cache.Stats
	BTBStats     bpred.Stats
	TableStats   addrpred.Stats
	RegCacheStat earlycalc.Stats

	// MechKind / MechStats describe the assist mechanism when one is
	// configured. Both are omitted from JSON otherwise, so configurations
	// without an assist serialize byte-identically to before the
	// mechanism layer existed.
	MechKind  string      `json:",omitempty"`
	MechStats *mech.Stats `json:",omitempty"`

	// Predict and Early describe the two speculation paths.
	Predict PathStats
	Early   PathStats

	// LoadLatencySum accumulates each load's effective latency (cycles
	// from its EXE stage until a dependent could execute), for the
	// average-load-latency reduction the paper reports.
	LoadLatencySum int64
	// ZeroCycleLoads / OneCycleLoads count loads satisfied with
	// effective latency 0 (early calculation) and 1 (prediction).
	ZeroCycleLoads int64
	OneCycleLoads  int64

	// PerPC is the per-PC load attribution table (nil unless EnablePerPC
	// was called before the run). Summing any PathStats field across rows
	// reproduces the corresponding Predict/Early counter above exactly.
	PerPC []LoadPCStats
}

// IPC returns retired instructions per cycle.
func (m *Metrics) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Insts) / float64(m.Cycles)
}

// AvgLoadLatency returns the mean effective load latency in cycles.
func (m *Metrics) AvgLoadLatency() float64 {
	if m.Loads == 0 {
		return 0
	}
	return float64(m.LoadLatencySum) / float64(m.Loads)
}

// SpeedupOver returns base.Cycles / m.Cycles — the paper's speedup metric
// relative to the base architecture.
func (m *Metrics) SpeedupOver(base *Metrics) float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(m.Cycles)
}
