//go:build !race

package dudect

const raceEnabled = false
