//go:build race

package budget

// raceEnabled trims the long single-goroutine sweeps under the race
// detector, which has nothing to find in them; plain runs and
// `make budget-audit` keep the full sweeps.
const raceEnabled = true
