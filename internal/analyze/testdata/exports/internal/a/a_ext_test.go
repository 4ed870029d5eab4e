package a_test

import (
	"testing"

	"fixture/internal/a"
)

func TestWriteOnly(t *testing.T) {
	c := a.Config{WriteOnly: 1}
	c.Dead()
	_ = c.WriteOnly
	_ = a.Knob
}
