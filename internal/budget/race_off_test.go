//go:build !race

package budget

const raceEnabled = false
