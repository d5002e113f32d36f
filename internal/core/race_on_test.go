//go:build race

package core_test

// raceEnabled skips allocation counts under the race detector, where
// sync.Pool drops pooled items at random.
const raceEnabled = true
