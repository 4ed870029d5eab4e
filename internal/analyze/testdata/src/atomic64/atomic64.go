// Fixture for the atomic64 analyzer: the 64-bit sync/atomic functions are
// flagged, the typed atomics and the 32-bit functions are not.
package atomic64

import "sync/atomic"

type counters struct {
	flag  uint32
	plain int64 // at offset 4 on 386: unaligned
	typed atomic.Int64
	bits  atomic.Uint64
}

func bump(c *counters) int64 {
	atomic.AddInt64(&c.plain, 1)                  // want `atomic.AddInt64 needs an 8-byte-aligned operand`
	_ = atomic.LoadUint64((*uint64)(nil))         // want `atomic.LoadUint64 needs`
	atomic.CompareAndSwapInt64(&c.plain, 1, 2)    // want `atomic.CompareAndSwapInt64 needs`
	atomic.StoreInt64(&c.plain, 3)                //ensemfdet:atomic64-ok fixture: the escape hatch exempts
	atomic.AddUint32(&c.flag, 1)                  // 32-bit: always aligned
	c.bits.Add(1)                                 // typed: always aligned
	return c.typed.Add(1) + atomic.LoadInt64(nil) // want `atomic.LoadInt64 needs`
}
