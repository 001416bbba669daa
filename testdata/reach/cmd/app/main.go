// Command app is the fixture's program.
package main

import (
	"fmt"

	"reachfix"
	"reachfix/internal/lib"
)

func main() {
	var s lib.Shape = lib.NewSquare(lib.Config{Size: 2})
	fmt.Println(s.Area()) // Square.Area, only through the interface

	sq := lib.NewSquare(lib.Config{Size: 3})
	fmt.Println(sq.ID()) // promoted from the embedded base
	scale := sq.Scale    // a method value
	scale(2)
	fmt.Println(sq) // String, reached with its type

	reachfix.NewThing().Used()
}
