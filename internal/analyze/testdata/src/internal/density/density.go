// Fixture pinning internal/density inside the determinism analyzer's scope:
// it computes the frozen merchant weights every vote reads, so the same
// constructs flagged in internal/core are flagged here.
package density

import "time"

func weightsByMap(deg map[uint32]int) []float64 {
	var w []float64
	for _, d := range deg { // want `range over map on the vote path`
		w = append(w, 1/float64(d+5))
	}
	return w
}

func stampedWeights() int64 {
	return time.Now().UnixNano() // want `time.Now on the vote path`
}
