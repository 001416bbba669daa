// Package lib holds one case of each verdict TestReachableFixture pins.
package lib

import "fmt"

// Shape is what the program calls Area through.
type Shape interface{ Area() float64 }

type base struct{ id int }

func (b base) ID() int { return b.id } // promoted into Square

// Config is a knob struct: the program sets Size, only a test Verbose.
type Config struct {
	Size    float64
	Verbose bool // flagged
}

// WithColor is an option only a test passes: flagged.
func WithColor(c string) func(*Config) { return func(*Config) {} }

// Square is reached through NewSquare's signature.
type Square struct {
	base
	side float64
}

func NewSquare(c Config) *Square { return &Square{side: c.Size} }

func (s *Square) Area() float64   { return s.side * s.side }                  // only through Shape
func (s *Square) Scale(k float64) { s.side *= k }                             // as a method value
func (s *Square) String() string  { return fmt.Sprintf("square %g", s.side) } // with its type

// Circle is never reached, so neither is its Area: flagged.
type Circle struct{ r float64 }

func (c Circle) Area() float64 { return 3 * c.r * c.r }

// Thing is aliased by the facade; no root reaches Unused: flagged.
type Thing struct{}

func (Thing) Used()   {}
func (Thing) Unused() {}

// InjectFault is the allowlisted safety hook; reset is reached only
// through it.
func InjectFault() { reset() }

func reset() {}
