// Package a holds one of each finding and one of each exemption.
package a

import "fmt"

// Used has a production caller.
func Used() int { return 1 }

// Unused has no caller anywhere.
func Unused() {}

// Annotated has no production caller, on purpose.
//
//ensemfdet:testonly tests build their fixtures with it
func Annotated() {}

// Knob is a var only a test reads.
var Knob = 1

// Config is a knob set.
type Config struct {
	// Read is set and read.
	Read int
	// Tagged is read and set only by an encoder.
	Tagged int `json:"tagged"`
	// WriteOnly is written, and read only by a test.
	WriteOnly int
	// Never is read and never set.
	Never int
}

// Encoded reads Tagged.
func (c Config) Encoded() int { return c.Tagged }

// String satisfies fmt.Stringer.
func (c Config) String() string { return fmt.Sprint(c.Read) }

// Dead has no caller anywhere.
func (c Config) Dead() {}

// API is re-exported by the root package.
type API struct {
	// Field is never set, but it is API.
	Field int
}

// Method has no caller, but it is API.
func (API) Method() {}
