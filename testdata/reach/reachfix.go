// Package reachfix is the facade of the module TestReachableFixture
// analyses: it aliases lib.Thing and declares the constructor a program
// calls.
package reachfix

import "reachfix/internal/lib"

// Thing is only an alias: its methods count when a root reaches them.
type Thing = lib.Thing

// NewThing is a facade function, so a root.
func NewThing() *Thing { return &lib.Thing{} }
