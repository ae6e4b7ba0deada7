//go:build go1.23

// This file is the package's only use of the iter package. Its build
// constraint sets the file's language version to go1.23, so the module's
// go line can stay at 1.22 (a nested module that replaces this one with
// its checkout states go 1.22 and would stop building if it rose), while
// building needs a go1.23 or later toolchain.

package sim

import "iter"

// coroutine starts body as a coroutine: resume switches to it until it
// calls yield or returns, and stop makes a pending yield return false.
// The value body yields is the proc its driver should resume next.
func coroutine(body func(yield func(*Proc) bool)) (resume func() (*Proc, bool), stop func()) {
	return iter.Pull(iter.Seq[*Proc](body))
}
