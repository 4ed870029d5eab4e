// Package fixture is the production caller of fixture/internal/a, and
// re-exports one of its types by alias as the library API.
package fixture

import "fixture/internal/a"

// API is re-exported: its methods and fields are the library API.
type API = a.API

// Run references what the fixture's production code uses.
func Run() int {
	c := a.Config{Read: a.Used(), WriteOnly: 2}
	return c.Read + c.Never + c.Encoded()
}
