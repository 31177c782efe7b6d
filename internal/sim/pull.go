//go:build go1.23 && !race

// The go1.23 tag raises this file's language version for iter.Pull.
// go.mod stays at go 1.22 because bench/go.mod says 1.22, and Go refuses a
// dependency whose go line is newer than its own.

package sim

import "iter"

// pull starts body as a coroutine. Each call of next runs the body until it
// calls yield or returns (ok is false once it has returned); a panic in the
// body is re-raised in next's caller. stop ends a body that has not
// returned: one never started does not run, and a suspended one sees its
// yield return false; a panic it raises on the way out is re-raised in
// stop's caller.
func pull(body iter.Seq[struct{}]) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(body)
}
