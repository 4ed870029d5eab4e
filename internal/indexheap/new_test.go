package indexheap

// New returns a heap able to hold ids in [0, capacity).
func New(capacity int) *Heap {
	h := &Heap{}
	h.Reset(capacity)
	return h
}
