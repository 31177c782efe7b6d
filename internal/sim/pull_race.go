//go:build race

package sim

// pull is iter.Pull's contract on a goroutine that trades control over two
// channels. Race builds use it because the runtime never releases a
// finished iter.Pull coroutine's race-detector state (coroexit skips
// racegoend): under -race, fig14-17 peaked at 2.7 GB instead of 376 MB.
func pull(body func(yield func(struct{}) bool)) (next func() (struct{}, bool)) {
	resume, back := make(chan struct{}), make(chan bool)
	var panicked any
	go func() {
		<-resume
		defer func() {
			panicked = recover()
			back <- false
		}()
		body(func(struct{}) bool {
			back <- true
			<-resume
			return true
		})
	}()
	return func() (struct{}, bool) {
		resume <- struct{}{}
		if <-back {
			return struct{}{}, true
		}
		if panicked != nil {
			panic(panicked)
		}
		return struct{}{}, false
	}
}
