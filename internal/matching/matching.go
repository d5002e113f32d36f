// Package matching provides the bipartite matching algorithms behind
// the offline auction mechanism.
//
// SolveInterval is the offline engine's solver: the tasks×phones
// matching collapsed onto slot capacities and phone windows, solved by
// weight-ordered augmenting paths with substitute queries for VCG
// pricing. MaxWeightMatching (and Solver, which keeps its dual
// potentials for O(s²) post-optimal queries) is the general O(s³)
// Hungarian algorithm (Kuhn 1955; the O(n³) variant of Edmonds–Karp
// 1972 / Tomizawa 1971 cited by the paper), kept as the differential
// oracle the interval solver is pinned against. BruteForceMaxWeight is
// an exhaustive test oracle for small instances. Network is a general
// min-cost-flow network for allocation problems beyond plain bipartite
// matching (the multi-task extension).
//
// All matching solvers share a convention: only strictly
// positive-weight edges are ever matched. Leaving a vertex unmatched is
// always permitted, so edges with weight ≤ 0 can never improve a
// maximum weight matching and are treated as absent.
package matching

// Unmatched is the sentinel value in matching arrays for an unmatched
// left vertex.
const Unmatched = -1

// WeightFunc reports the weight of the edge between left vertex l and
// right vertex r. A return value ≤ 0 means "no usable edge".
type WeightFunc func(l, r int) float64

// Result is a bipartite matching together with its total weight.
type Result struct {
	// MatchLeft maps each left vertex to its matched right vertex, or
	// Unmatched.
	MatchLeft []int
	// Weight is the sum of weights of matched edges.
	Weight float64
}

// MatchRight derives the inverse map: right vertex -> left vertex or
// Unmatched.
func (r Result) MatchRight(numRight int) []int {
	m := make([]int, numRight)
	for j := range m {
		m[j] = Unmatched
	}
	for l, j := range r.MatchLeft {
		if j != Unmatched {
			m[j] = l
		}
	}
	return m
}

// Size returns the number of matched edges.
func (r Result) Size() int {
	n := 0
	for _, j := range r.MatchLeft {
		if j != Unmatched {
			n++
		}
	}
	return n
}

// Verify checks internal consistency of the matching: every matched right
// vertex is used at most once, indices are in range, and the recorded
// weight equals the recomputed sum. It returns false on any violation.
func (r Result) Verify(numLeft, numRight int, w WeightFunc) bool {
	if len(r.MatchLeft) != numLeft {
		return false
	}
	seen := make([]bool, numRight)
	var total float64
	for l, j := range r.MatchLeft {
		if j == Unmatched {
			continue
		}
		if j < 0 || j >= numRight || seen[j] {
			return false
		}
		seen[j] = true
		// !(wt > 0) rather than wt <= 0 so NaN weights (for which every
		// comparison is false) are rejected, not summed.
		wt := w(l, j)
		if !(wt > 0) {
			return false
		}
		total += wt
	}
	const eps = 1e-6
	return total-r.Weight < eps && r.Weight-total < eps
}
