//go:build !race

package stream

// raceEnabled reports a -race build, whose sync.Pool drops items at random.
const raceEnabled = false
