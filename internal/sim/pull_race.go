//go:build race

package sim

// pull is iter.Pull's contract on a goroutine that trades control over two
// channels. Race builds use it because the runtime never releases a
// finished iter.Pull coroutine's race-detector state (coroexit skips
// racegoend): under -race, fig14-17 peaked at 2.7 GB instead of 376 MB.
func pull(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	// resume carries true to run the body on, false to stop it; stopped
	// belongs to the body's goroutine and finished to the caller's.
	resume, back := make(chan bool), make(chan bool)
	var panicked any
	stopped, finished := false, false
	go func() {
		defer func() {
			panicked = recover()
			back <- false
		}()
		if stopped = !<-resume; !stopped {
			body(func(struct{}) bool {
				if !stopped {
					back <- true
					stopped = !<-resume
				}
				return !stopped
			})
		}
	}()
	step := func(run bool) bool {
		resume <- run
		if <-back {
			return true
		}
		finished = true
		if panicked != nil {
			panic(panicked)
		}
		return false
	}
	next = func() (struct{}, bool) {
		return struct{}{}, !finished && step(true)
	}
	stop = func() {
		if !finished {
			step(false)
		}
	}
	return next, stop
}
