package sim

import "fmt"

// FIFOResource models a serially-reusable resource with reservation
// semantics: callers ask for an interval of exclusive use starting no
// earlier than a given time, and the resource hands back the actual start.
// It is the model for torus links and NIC injection ports, where transfers
// queue behind one another.
//
// FIFOResource does not block processes; it is pure bookkeeping, so the
// network layer can compute full end-to-end message timelines inside a
// single event.
type FIFOResource struct {
	// BusyUntil is the time at which the resource becomes free. The zero
	// value (0) means free from the start of the simulation.
	BusyUntil Time
	// Busy accumulates total occupied seconds, for utilisation reporting.
	Busy Time
	// Count is the number of reservations made.
	Count uint64
}

// Reserve books the resource for dur seconds starting no earlier than at,
// queueing behind any existing reservation. It returns the actual start
// time.
func (r *FIFOResource) Reserve(at Time, dur Time) Time {
	if dur < 0 {
		panic(negativeReservation(dur))
	}
	start := at
	if r.BusyUntil > start {
		start = r.BusyUntil
	}
	r.BusyUntil = start + dur
	r.Busy += dur
	r.Count++
	return start
}

// negativeReservation is Reserve's panic value. Formatting the message in
// its Error method rather than at the panic site keeps Reserve within the
// compiler's inlining budget: the network route walk reserves a link per
// hop.
type negativeReservation Time

func (d negativeReservation) Error() string {
	return fmt.Sprintf("sim: negative reservation %.9g", float64(d))
}

// Utilization reports the fraction of [0, horizon] the resource was busy.
func (r *FIFOResource) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return r.Busy / horizon
}

// psJob is one in-flight demand on a processor-sharing resource.
type psJob struct {
	remaining float64 // units still to be served
	total     float64 // original demand, for the relative completion test
	proc      *Proc   // process to wake on completion (nil for async jobs)
	fn        func()  // callback on completion (for async jobs)
}

// doneBy is the completion threshold: floating-point drift in the
// advance/reschedule cycle can leave a residual of order total·ε that a
// rescheduled delay too small to move the clock would never serve, so
// completion is judged relative to the job's original size.
func (j *psJob) doneBy() float64 { return j.total*1e-12 + 1e-15 }

// PSResource is an egalitarian processor-sharing resource: when n jobs are
// active, each is served at Capacity/n units per second. It is the model
// for a socket's memory bandwidth shared between two Opteron cores — the
// mechanism behind the paper's STREAM and RandomAccess EP-mode results —
// and for any other bandwidth pool where concurrent flows degrade each
// other smoothly rather than queueing.
type PSResource struct {
	eng *Engine
	// Capacity is the total service rate in units per second.
	Capacity float64
	// Served accumulates total units delivered, for reporting.
	Served float64

	jobs       []*psJob
	lastUpdate Time
	gen        uint64 // invalidates stale completion events
}

// NewPSResource creates a processor-sharing resource with the given total
// capacity (units per second).
func NewPSResource(eng *Engine, capacity float64) *PSResource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: PSResource capacity must be positive, got %.9g", capacity))
	}
	return &PSResource{eng: eng, Capacity: capacity}
}

// Active reports the number of jobs currently being served.
func (r *PSResource) Active() int { return len(r.jobs) }

// Consume blocks the process until amount units have been served, sharing
// the capacity equally with every other concurrent job.
func (r *PSResource) Consume(p *Proc, amount float64) {
	if amount <= 0 {
		return
	}
	r.advance()
	j := &psJob{remaining: amount, total: amount, proc: p}
	r.jobs = append(r.jobs, j)
	r.reschedule()
	p.yield()
}

// ConsumeAsync registers a demand for amount units and calls fn when it has
// been served. It does not block and may be used from events.
func (r *PSResource) ConsumeAsync(amount float64, fn func()) {
	if amount <= 0 {
		r.eng.After(0, fn)
		return
	}
	r.advance()
	r.jobs = append(r.jobs, &psJob{remaining: amount, total: amount, fn: fn})
	r.reschedule()
}

// advance drains service performed since lastUpdate into each job.
func (r *PSResource) advance() {
	now := r.eng.now
	if now <= r.lastUpdate {
		r.lastUpdate = now
		return
	}
	if n := len(r.jobs); n > 0 {
		served := (now - r.lastUpdate) * r.Capacity / float64(n)
		for _, j := range r.jobs {
			j.remaining -= served
			r.Served += served
		}
	}
	r.lastUpdate = now
}

// reschedule plans the next completion event based on the job with the
// least remaining demand. Stale events are invalidated via the generation
// counter rather than removed from the heap.
func (r *PSResource) reschedule() {
	r.gen++
	n := len(r.jobs)
	if n == 0 {
		return
	}
	minRem := r.jobs[0].remaining
	for _, j := range r.jobs[1:] {
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	gen := r.gen
	dt := minRem * float64(n) / r.Capacity
	at := r.eng.now + dt
	if at <= r.eng.now {
		// The residual is too small for the simulated clock to resolve
		// (now + dt rounds back to now), so advance() would serve nothing
		// and the completion event would respawn forever. Snap residuals
		// at the minimum to done; complete() collects them.
		for _, j := range r.jobs {
			if j.remaining <= minRem {
				j.remaining = 0
			}
		}
		at = r.eng.now
	}
	r.eng.At(at, func() {
		if r.gen != gen {
			return // superseded by a later arrival/departure
		}
		r.complete()
	})
}

// complete finishes every job whose demand has been met and wakes or calls
// back its owner.
func (r *PSResource) complete() {
	r.advance()
	kept := r.jobs[:0]
	var done []*psJob
	for _, j := range r.jobs {
		if j.remaining <= j.doneBy() {
			done = append(done, j)
		} else {
			kept = append(kept, j)
		}
	}
	r.jobs = kept
	for _, j := range done {
		if j.proc != nil {
			j.proc.wake()
		} else if j.fn != nil {
			fn := j.fn
			r.eng.After(0, fn)
		}
	}
	r.reschedule()
}
