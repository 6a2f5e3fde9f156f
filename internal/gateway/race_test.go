//go:build race

package gateway

// raceEnabled reports a -race build, whose sync.Pool drops some of what
// it is given.
const raceEnabled = true
