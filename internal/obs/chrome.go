package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"elag/internal/isa"
	"elag/internal/pipeline"
)

// Chrome trace_event export. The output is the JSON-object form of the
// trace_event format ({"traceEvents": [...]}) understood by Perfetto and
// chrome://tracing. One simulated cycle maps to one microsecond of trace
// time, so Perfetto's time axis reads directly in cycles.
//
// Lane layout (process/thread ids):
//
//	pid 1 "pipeline"     tid 0..7 issue slots (instructions round-robin
//	                     by sequence number), tid 9 stall spans
//	pid 2 "speculation"  tid 1 prediction path (the ld_p table's and an
//	                     assist mechanism's), tid 2 early-calculation
//	pid 3 "memory"       tid 1 I-cache, tid 2 D-cache
//	pid 4 "predictor"    tid 1 prediction table or assist mechanism,
//	                     tid 2 R_addr register cache
//	pid 5 "control"      tid 1 branch resolution
const (
	pidPipeline = 1
	pidSpec     = 2
	pidMemory   = 3
	pidPred     = 4
	pidControl  = 5

	retireLanes = 8
	tidStalls   = 9
)

// chromeEvent is one trace_event record. Field order (and json's sorted
// map keys for args) make the output byte-stable for a given event stream.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func meta(name string, pid, tid int, arg string) chromeEvent {
	ce := chromeEvent{Name: name, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": arg}}
	return ce
}

func chromeMetadata() []chromeEvent {
	evs := []chromeEvent{
		meta("process_name", pidPipeline, 0, "pipeline"),
		meta("process_name", pidSpec, 0, "speculation"),
		meta("process_name", pidMemory, 0, "memory"),
		meta("process_name", pidPred, 0, "predictor"),
		meta("process_name", pidControl, 0, "control"),
	}
	for i := 0; i < retireLanes; i++ {
		evs = append(evs, meta("thread_name", pidPipeline, i, fmt.Sprintf("slot %d", i)))
	}
	evs = append(evs,
		meta("thread_name", pidPipeline, tidStalls, "stalls"),
		meta("thread_name", pidSpec, 1, "prediction path (ld_p / assist)"),
		meta("thread_name", pidSpec, 2, "early calc (ld_e)"),
		meta("thread_name", pidMemory, 1, "I-cache"),
		meta("thread_name", pidMemory, 2, "D-cache"),
		meta("thread_name", pidPred, 1, "prediction table / assist"),
		meta("thread_name", pidPred, 2, "R_addr"),
		meta("thread_name", pidControl, 1, "branches"),
	)
	return evs
}

// specTid puts the early-calculation path ('E') on its own lane and the
// prediction path on the other: 'P' for the table, 'A' for an assist
// mechanism, which runs the prediction path.
func specTid(path byte) int {
	if path == 'E' {
		return 2
	}
	return 1
}

func levelTid(level byte) int {
	if level == 'I' {
		return 1
	}
	return 2
}

// chromeFromEvent converts one pipeline event. Every event kind has a
// lane; ok=false drops an unknown kind from the Chrome view.
func chromeFromEvent(prog *isa.Program, ev *pipeline.Event) (chromeEvent, bool) {
	name := func(pc int) string {
		if prog != nil && pc >= 0 && pc < len(prog.Insts) {
			return prog.Insts[pc].String()
		}
		return fmt.Sprintf("pc%d", pc)
	}
	switch ev.Kind {
	case pipeline.EvRetire:
		dur := ev.Done - ev.Fetch
		if dur < 1 {
			dur = 1
		}
		args := map[string]any{"seq": ev.Seq, "pc": ev.PC, "issue": ev.Issue,
			"done": ev.Done}
		if ev.Lat >= 0 {
			args["fwd_lat"] = ev.Lat
		}
		return chromeEvent{Name: name(ev.PC), Cat: "inst", Ph: "X",
			Ts: ev.Fetch, Dur: dur, Pid: pidPipeline,
			Tid: int(ev.Seq % retireLanes), Args: args}, true
	case pipeline.EvStall:
		dur := ev.Cycles
		if dur < 1 {
			dur = 1
		}
		return chromeEvent{Name: ev.Cause.String(), Cat: "stall", Ph: "X",
			Ts: ev.Cycle, Dur: dur, Pid: pidPipeline, Tid: tidStalls,
			Args: map[string]any{"seq": ev.Seq, "pc": ev.PC}}, true
	case pipeline.EvSpecLaunch:
		return chromeEvent{Name: "launch", Cat: "spec", Ph: "i", Ts: ev.Cycle,
			Pid: pidSpec, Tid: specTid(ev.Path), S: "t",
			Args: map[string]any{"addr": ev.Addr, "pc": ev.PC, "seq": ev.Seq}}, true
	case pipeline.EvSpecForward:
		return chromeEvent{Name: "forward", Cat: "spec", Ph: "i", Ts: ev.Cycle,
			Pid: pidSpec, Tid: specTid(ev.Path), S: "t",
			Args: map[string]any{"lat": ev.Lat, "pc": ev.PC, "seq": ev.Seq}}, true
	case pipeline.EvSpecFail:
		return chromeEvent{Name: "fail", Cat: "spec", Ph: "i", Ts: ev.Cycle,
			Pid: pidSpec, Tid: specTid(ev.Path), S: "t",
			Args: map[string]any{"pc": ev.PC, "seq": ev.Seq,
				"terms": ev.Fail.String()}}, true
	case pipeline.EvCacheAccess:
		n := "hit"
		if !ev.Hit {
			n = "miss"
		}
		return chromeEvent{Name: n, Cat: "access", Ph: "i", Ts: ev.Cycle,
			Pid: pidMemory, Tid: levelTid(ev.Level), S: "t",
			Args: map[string]any{"addr": ev.Addr, "pc": ev.PC, "spec": ev.Spec}}, true
	case pipeline.EvCacheMiss:
		dur := ev.FillDone - ev.Cycle
		if dur < 1 {
			dur = 1
		}
		return chromeEvent{Name: "miss fill", Cat: "miss", Ph: "X",
			Ts: ev.Cycle, Dur: dur, Pid: pidMemory, Tid: levelTid(ev.Level),
			Args: map[string]any{"addr": ev.Addr, "pc": ev.PC, "spec": ev.Spec}}, true
	case pipeline.EvTableTransition:
		n := fmt.Sprintf("%s->%s", ev.From, ev.To)
		if ev.Alloc {
			n = "alloc->" + ev.To.String()
		}
		return chromeEvent{Name: n, Cat: "table", Ph: "i", Ts: ev.Cycle,
			Pid: pidPred, Tid: 1, S: "t",
			Args: map[string]any{"correct": ev.Correct, "pc": ev.PC}}, true
	case pipeline.EvMech:
		n, args := "train", map[string]any{"addr": ev.Addr, "pc": ev.PC}
		switch ev.MechOp {
		case 'L':
			n = "lookup"
			args["hit"] = ev.Hit
		case 'A':
			n = "alloc"
		}
		return chromeEvent{Name: n, Cat: "mech", Ph: "i", Ts: ev.Cycle,
			Pid: pidPred, Tid: 1, S: "t", Args: args}, true
	case pipeline.EvRegBind:
		return chromeEvent{Name: "bind", Cat: "regcache", Ph: "i", Ts: ev.Cycle,
			Pid: pidPred, Tid: 2, S: "t",
			Args: map[string]any{"pc": ev.PC, "reg": fmt.Sprintf("r%d", ev.Reg), "value": ev.Value}}, true
	case pipeline.EvBranchResolve:
		n := "not-taken"
		if ev.Taken {
			n = "taken"
		}
		return chromeEvent{Name: n, Cat: "branch", Ph: "i", Ts: ev.Cycle,
			Pid: pidControl, Tid: 1, S: "t",
			Args: map[string]any{"mispredict": ev.Mispredict, "pc": ev.PC}}, true
	}
	return chromeEvent{}, false
}

// WriteChromeTrace writes events as a Chrome trace_event JSON object. prog
// (may be nil) supplies instruction mnemonics for the pipeline lanes. The
// output is deterministic for a given event stream: events appear in
// emission order after a fixed metadata preamble.
func WriteChromeTrace(w io.Writer, prog *isa.Program, events []pipeline.Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\": [\n"); err != nil {
		return err
	}
	first := true
	emit := func(ce chromeEvent) error {
		buf, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(buf)
		return err
	}
	for _, ce := range chromeMetadata() {
		if err := emit(ce); err != nil {
			return err
		}
	}
	for i := range events {
		ce, ok := chromeFromEvent(prog, &events[i])
		if !ok {
			continue
		}
		if err := emit(ce); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n], \"displayTimeUnit\": \"ns\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
