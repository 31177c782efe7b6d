package expt

import (
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"xtsim/internal/machine"
)

// Status is the outcome of one experiment within a campaign.
type Status struct {
	Experiment Experiment
	// Result is the structured output; on error it holds whatever blocks
	// the experiment produced before failing (possibly none).
	Result *Result
	// Err is the experiment error, a recovered panic, or a timeout.
	Err error
	// Stack is the goroutine stack of a recovered panic, nil otherwise.
	// It is reported on the Progress stream only — panic sites are host
	// state, not campaign output.
	Stack []byte
	// Wall is host wall-clock time spent executing the experiment.
	Wall time.Duration
}

// Artifact converts the status into its machine-readable form.
func (s Status) Artifact(opts Options) Artifact {
	a := Artifact{
		SchemaVersion: ArtifactSchemaVersion,
		ID:            s.Experiment.ID,
		PaperArtifact: s.Experiment.Artifact,
		Title:         s.Experiment.Title,
		Options:       opts,
		Machines:      machine.All(),
		WallSeconds:   s.Wall.Seconds(),
	}
	if s.Result != nil {
		a.Blocks = s.Result.Blocks
		a.SimSeconds = s.Result.SimSeconds
		a.Attachments = s.Result.Attachments
	}
	if s.Err != nil {
		a.Error = s.Err.Error()
	}
	return a
}

// Runner executes a campaign of experiments within one worker budget.
//
// Concurrency never changes what a campaign prints: results stream to
// Output in input order (a completed experiment waits until all its
// predecessors have been rendered), and each experiment is deterministic,
// so the Output bytes are identical for any Jobs value. Completion-order
// timing lines go to Progress, which is inherently unordered.
type Runner struct {
	// Jobs is the campaign's worker budget: experiments and their sweep
	// cells together never occupy more than Jobs workers. Each running
	// experiment holds one slot, and runCells lends the idle ones to its
	// cells. Values below 1 run everything sequentially.
	Jobs int
	// Opts is passed to every experiment.
	Opts Options
	// Timeout bounds each experiment's wall-clock time; 0 means none.
	// A timed-out experiment reports an error and returns its slot, but
	// its goroutine cannot be cancelled mid-simulation and is abandoned
	// to finish in the background (acceptable for a CLI process;
	// long-lived embedders should prefer generous timeouts).
	Timeout time.Duration
	// Output, when non-nil, receives each experiment's banner and
	// rendered blocks in input order as they become available.
	Output io.Writer
	// Progress, when non-nil, receives one unordered line per completed
	// experiment with wall/simulated-time metrics, plus panic stacks.
	Progress io.Writer
	// OnComplete, when non-nil, is called once per experiment in
	// completion order — the order results become final, not input order —
	// with the experiment's input index and its final Status. Calls are
	// serialized (never concurrent with each other or with Progress
	// writes) and happen before the campaign's ordered rendering reaches
	// the experiment, so a long-lived embedder (the -serve campaign
	// server) can stream per-job progress and memoize results without
	// waiting for, or re-rendering, the ordered Output stream.
	OnComplete func(index int, s Status)

	progressMu sync.Mutex
}

// Run executes exps and returns one Status per experiment, in input order.
// A failing (or panicking, or timed-out) experiment does not stop the
// campaign; inspect the statuses — or use Failed — for the outcome.
func (r *Runner) Run(exps []Experiment) []Status {
	// budget holds one element per occupied slot: a worker blocks for a
	// slot before each experiment, and runCells only takes free ones.
	budget := make(chan struct{}, max(r.Jobs, 1))

	statuses := make([]Status, len(exps))
	done := make([]chan struct{}, len(exps))
	for i := range done {
		done[i] = make(chan struct{})
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(cap(budget), len(exps)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				budget <- struct{}{}
				statuses[i] = r.runOne(exps[i], budget)
				<-budget
				r.complete(i, &statuses[i])
				close(done[i])
			}
		}()
	}
	go func() {
		for i := range exps {
			work <- i
		}
		close(work)
	}()

	// Ordered collection: render each result as soon as it and all its
	// predecessors are complete.
	for i := range exps {
		<-done[i]
		r.render(&statuses[i])
	}
	wg.Wait()
	return statuses
}

// Failed filters a campaign's statuses down to the unsuccessful ones.
func Failed(statuses []Status) []Status {
	var out []Status
	for _, s := range statuses {
		if s.Err != nil {
			out = append(out, s)
		}
	}
	return out
}

// runOne executes a single experiment with panic recovery and the
// configured timeout, lending it the campaign's budget.
func (r *Runner) runOne(e Experiment, budget chan struct{}) Status {
	st := Status{Experiment: e}
	type outcome struct {
		res   *Result
		err   error
		stack []byte
	}
	ch := make(chan outcome, 1)
	start := time.Now()
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: fmt.Errorf("panic: %v", p), stack: debug.Stack()}
			}
		}()
		res, err := e.execute(r.Opts, budget)
		ch <- outcome{res: res, err: err}
	}()

	if r.Timeout > 0 {
		timer := time.NewTimer(r.Timeout)
		defer timer.Stop()
		select {
		case o := <-ch:
			st.Result, st.Err, st.Stack = o.res, o.err, o.stack
		case <-timer.C:
			st.Err = fmt.Errorf("timed out after %v", r.Timeout)
		}
	} else {
		o := <-ch
		st.Result, st.Err, st.Stack = o.res, o.err, o.stack
	}
	st.Wall = time.Since(start)
	return st
}

// Render writes the status exactly as a campaign renders it: the
// experiment banner, the result blocks, the failure line for an
// unsuccessful run, and a trailing blank line. Error text is deterministic
// campaign output (a failing experiment fails the same way at any worker
// count), so it renders too. Concatenating per-status renderings in input
// order reproduces the campaign's Output stream byte for byte — the
// contract the -serve result cache is built on.
func (s *Status) Render(w io.Writer) error {
	if _, err := io.WriteString(w, s.Experiment.Header()); err != nil {
		return err
	}
	if s.Result != nil {
		if err := s.Result.Render(w); err != nil {
			return err
		}
	}
	if s.Err != nil {
		if _, err := fmt.Fprintf(w, "-- %s FAILED: %v --\n", s.Experiment.ID, s.Err); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// render writes one experiment's banner and blocks to Output.
func (r *Runner) render(s *Status) {
	if r.Output == nil {
		return
	}
	s.Render(r.Output)
}

// complete runs the completion-order callbacks for one finished
// experiment: OnComplete, then the Progress metrics line. Both are
// serialized under one mutex.
func (r *Runner) complete(i int, s *Status) {
	if r.OnComplete == nil && r.Progress == nil {
		return
	}
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	if r.OnComplete != nil {
		r.OnComplete(i, *s)
	}
	r.reportProgress(s)
}

// reportProgress emits the completion-order metrics line (and any panic
// stack) for one experiment. Callers hold progressMu.
func (r *Runner) reportProgress(s *Status) {
	if r.Progress == nil {
		return
	}
	switch {
	case s.Err != nil:
		fmt.Fprintf(r.Progress, "-- %s FAILED after %v: %v --\n",
			s.Experiment.ID, s.Wall.Round(time.Millisecond), s.Err)
		if len(s.Stack) > 0 {
			r.Progress.Write(s.Stack)
		}
	case s.Result != nil && s.Result.SimSeconds > 0:
		fmt.Fprintf(r.Progress, "-- %s done in %v (simulated %.3fs) --\n",
			s.Experiment.ID, s.Wall.Round(time.Millisecond), s.Result.SimSeconds)
	default:
		fmt.Fprintf(r.Progress, "-- %s done in %v --\n",
			s.Experiment.ID, s.Wall.Round(time.Millisecond))
	}
}
