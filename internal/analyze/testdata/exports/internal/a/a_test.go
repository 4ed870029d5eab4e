package a

import "testing"

func TestAnnotated(t *testing.T) {
	Annotated()
	Unused()
}
