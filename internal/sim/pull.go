//go:build go1.23 && !race

// The go1.23 tag raises this file's language version for iter.Pull.
// go.mod stays at go 1.22 because bench/go.mod says 1.22, and Go refuses a
// dependency whose go line is newer than its own.

package sim

import "iter"

// pull starts body as a coroutine. Each call of next runs the body until it
// calls yield or returns (ok is false once it has returned); a panic in the
// body is re-raised in next's caller.
func pull(body iter.Seq[struct{}]) (next func() (struct{}, bool)) {
	next, _ = iter.Pull(body) // stop is never called: a body runs to its end
	return next
}
