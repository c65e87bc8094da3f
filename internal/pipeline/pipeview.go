package pipeline

import (
	"fmt"
	"strings"

	"elag/internal/isa"
)

// StageSink is an EventSink that keeps the EvRetire events of a run, each
// instruction's stage occupancy, for RenderStageTrace.
type StageSink []Event

// Event implements EventSink.
func (k *StageSink) Event(ev *Event) {
	if ev.Kind == EvRetire {
		*k = append(*k, *ev)
	}
}

// RenderStageTrace draws EvRetire events as a text pipeline diagram, one
// instruction per row:
//
//	seq    pc  instruction              |F DD X M|
//
// F = fetch, D = decode (ID1/ID2 and any stall cycles), X = execute,
// M = memory/completion; a forwarded load is marked with its effective
// latency (0 = zero-cycle, 1 = one-cycle).
func RenderStageTrace(prog *isa.Program, retired []Event) string {
	if len(retired) == 0 {
		return ""
	}
	base := retired[0].Fetch
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycle origin: %d\n", base)
	for _, r := range retired {
		width := int(r.Done - base + 1)
		if width < 1 || width > 200 {
			width = 200
		}
		lane := []byte(strings.Repeat(" ", width))
		put := func(cycle int64, ch byte) {
			i := int(cycle - base)
			if i >= 0 && i < len(lane) {
				lane[i] = ch
			}
		}
		put(r.Fetch, 'F')
		for c := r.Fetch + 1; c < r.Issue; c++ {
			put(c, 'D')
		}
		put(r.Issue, 'X')
		for c := r.Issue + 1; c <= r.Done; c++ {
			put(c, 'M')
		}
		mark := ' '
		switch r.Lat {
		case 0:
			mark = '0'
		case 1:
			mark = '1'
		}
		in := ""
		if r.PC >= 0 && r.PC < len(prog.Insts) {
			in = prog.Insts[r.PC].String()
		}
		fmt.Fprintf(&sb, "%6d %5d %c %-28s |%s|\n", r.Seq, r.PC, mark, in, lane)
	}
	return sb.String()
}
