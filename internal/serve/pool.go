package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"time"

	"elag"
	"elag/internal/chaosinject"
	"elag/internal/harness"
	"elag/internal/telemetry"
)

// Job is one admitted job: its spec, its cancellable context, its live
// progress stream, and its terminal outcome. A Job moves queued → running
// → {done, failed, canceled}; the terminal transition happens exactly once
// and settles everything at once — Done() closes, the outcome counters and
// wall histogram update, the progress stream closes, and the outcome is
// logged with the job ID.
type Job struct {
	// ID is the server-assigned handle ("job-000042").
	ID string
	// Spec is the validated submission.
	Spec *JobSpec

	ctx    context.Context
	cancel context.CancelFunc

	created  time.Time
	stats    *Stats
	log      *slog.Logger
	progress *telemetry.Progress

	// onTerminal, when set, runs inside the terminal transition with j.mu
	// held, after the counters settle. The single-flight layer installs it
	// on coalescing leaders (before the job is ever visible to a worker)
	// to publish the outcome to the artifact store and the followers. It
	// must not take j.mu again.
	onTerminal func(j *Job)

	mu      sync.Mutex
	state   string
	started time.Time
	result  any
	jobErr  *JobError
	done    chan struct{}
}

func newJob(id string, spec *JobSpec, ctx context.Context, cancel context.CancelFunc,
	stats *Stats, log *slog.Logger) *Job {
	return &Job{
		ID: id, Spec: spec,
		ctx: ctx, cancel: cancel,
		created:  time.Now(),
		stats:    stats,
		log:      log.With("job", id, "kind", spec.Kind),
		progress: telemetry.NewProgress(),
		state:    StateQueued,
		done:     make(chan struct{}),
	}
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Progress is the job's live event stream (GET /v1/jobs/{id}/events).
func (j *Job) Progress() *telemetry.Progress { return j.progress }

// Cancel requests cancellation: the job's context is cancelled (a running
// job aborts within one trace chunk) and, if it was still queued, it goes
// terminal immediately so the worker that later dequeues it skips it.
func (j *Job) Cancel() {
	j.cancel()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateQueued {
		j.state = StateCanceled
		j.jobErr = &JobError{Kind: ErrKindCanceled, Message: "canceled while queued"}
		j.terminalLocked()
	}
}

// start moves a queued job to running, returning false if it already went
// terminal (cancelled while queued).
func (j *Job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.stats.jobStarted(j.started.Sub(j.created))
	j.progress.Publish(telemetry.Frame{Type: "state", Job: j.ID, State: StateRunning})
	j.log.Info("job started", "queue_wait", j.started.Sub(j.created))
	return true
}

// finish records the job's terminal outcome. Idempotent: only the first
// call wins (a worker dying mid-finish cannot double-close done). The
// deadline timer is released only after the terminal state is settled:
// a coalesced follower watches its own context and calls finish on
// cancellation, so cancelling before the state transition would let that
// watcher race a concurrent success delivery and mark a successfully
// delivered job canceled.
func (j *Job) finish(result any, jerr *JobError) {
	j.mu.Lock()
	if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
		j.mu.Unlock()
		j.cancel()
		return
	}
	switch {
	case jerr == nil:
		j.state, j.result = StateDone, result
	case jerr.Kind == ErrKindCanceled:
		j.state, j.jobErr = StateCanceled, jerr
	default:
		j.state, j.jobErr = StateFailed, jerr
	}
	j.terminalLocked()
	j.mu.Unlock()
	j.cancel() // release the deadline timer
}

// terminalLocked settles the terminal transition. Called with j.mu held,
// exactly once per job, after state moved to a terminal value: it closes
// done, updates the outcome counter / wall histogram / in-flight gauge in
// one place (the exactness invariants depend on this being the only
// counting site), closes the progress stream so event subscribers see EOF
// and then the terminator frame, and logs the outcome.
func (j *Job) terminalLocked() {
	close(j.done)
	wall := time.Since(j.created)
	j.stats.jobFinished(j.Spec.Kind, j.state, wall)
	j.progress.Close()
	if j.jobErr != nil {
		j.log.Info("job finished", "state", j.state, "wall", wall,
			"error_kind", j.jobErr.Kind, "error", j.jobErr.Message)
	} else {
		j.log.Info("job finished", "state", j.state, "wall", wall)
	}
	if j.onTerminal != nil {
		j.onTerminal(j)
	}
}

// Status snapshots the job as its wire document.
func (j *Job) Status() *StatusDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	return &StatusDoc{
		Schema: Schema,
		ID:     j.ID,
		Kind:   j.Spec.Kind,
		State:  j.state,
		Error:  j.jobErr,
		Result: j.result,
	}
}

// classifyErr maps an execution error to its wire-visible JobError.
func classifyErr(err error) *JobError {
	var spec *SpecError
	var fault *elag.Fault
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &JobError{Kind: ErrKindDeadline, Message: "job deadline exceeded"}
	case errors.Is(err, context.Canceled):
		return &JobError{Kind: ErrKindCanceled, Message: "job canceled"}
	case errors.As(err, &spec):
		return &JobError{Kind: ErrKindInvalid, Message: spec.Error()}
	case errors.As(err, &fault):
		return &JobError{Kind: ErrKindFault, Message: err.Error()}
	default:
		return &JobError{Kind: ErrKindInternal, Message: err.Error()}
	}
}

// pool runs admitted jobs on a fixed number of workers. Each job executes
// under a recover barrier: a panicking job goes terminal with a typed
// JobError carrying the stack, the panicking worker goroutine exits, and
// the pool starts a replacement — the process never dies for a job, and
// the worker count never decays.
type pool struct {
	jobs         chan *Job
	gridParallel int
	wg           sync.WaitGroup
	stats        *Stats
	work         *harness.Counters
	log          *slog.Logger
}

// newPool starts workers goroutines draining queue. gridParallel is the
// harness parallelism grid jobs run with (each grid job fans its
// benchmarks over that many goroutines of its own).
func newPool(workers, gridParallel int, queue chan *Job, stats *Stats,
	work *harness.Counters, log *slog.Logger) *pool {
	p := &pool{jobs: queue, gridParallel: gridParallel, stats: stats, work: work, log: log}
	for i := 0; i < workers; i++ {
		p.startWorker()
	}
	return p
}

// startWorker launches one worker goroutine. The wg.Add happens before the
// dying worker's wg.Done when called from the panic path, so Wait never
// observes a transient zero while a replacement is coming up.
func (p *pool) startWorker() {
	p.wg.Add(1)
	go p.worker()
}

func (p *pool) worker() {
	var cur *Job
	defer func() {
		if r := recover(); r != nil {
			// The job dies with the evidence; the service does not. The
			// replacement starts before this goroutine counts itself out
			// so drain's Wait never sees the pool empty early.
			if cur != nil {
				cur.finish(nil, &JobError{
					Kind:    ErrKindPanic,
					Message: fmt.Sprint(r),
					Stack:   string(debug.Stack()),
				})
				cur.log.Error("worker panic recovered", "panic", fmt.Sprint(r))
			} else {
				p.log.Error("worker panic recovered outside a job", "panic", fmt.Sprint(r))
			}
			p.stats.PanicsRecovered.Add(1)
			p.stats.WorkersReplaced.Add(1)
			p.startWorker()
		}
		p.wg.Done()
	}()
	for j := range p.jobs {
		cur = j
		p.runOne(j)
		cur = nil
	}
}

// runOne executes one dequeued job to a terminal state. Runs on the worker
// goroutine, inside its recover barrier. Outcome counting happens in the
// job's terminal transition, not here — a job cancelled while queued was
// already counted when Cancel moved it terminal.
func (p *pool) runOne(j *Job) {
	if !j.start() {
		return // went terminal while queued; already accounted there
	}
	p.stats.WorkersBusy.Add(1)
	defer p.stats.WorkersBusy.Add(-1)
	if err := j.ctx.Err(); err != nil {
		j.finish(nil, classifyErr(err))
		return
	}
	// Chaos: an injected worker crash surfaces exactly where a real
	// simulation-kernel bug would — after dequeue, before results exist.
	chaosinject.MaybePanic("worker")
	result, err := execute(j, p.gridParallel, p.work)
	if err != nil {
		j.finish(nil, classifyErr(err))
		return
	}
	j.finish(result, nil)
}

// wait blocks until every worker has exited (the queue must be closed
// first).
func (p *pool) wait() { p.wg.Wait() }
