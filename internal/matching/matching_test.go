package matching

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func denseWeights(m [][]float64) WeightFunc {
	return func(l, r int) float64 { return m[l][r] }
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestMaxWeightMatchingEmpty(t *testing.T) {
	for _, tc := range []struct{ l, r int }{{0, 0}, {0, 5}, {5, 0}} {
		res := MaxWeightMatching(tc.l, tc.r, func(int, int) float64 { return 1 })
		if res.Weight != 0 || res.Size() != 0 {
			t.Errorf("(%d,%d): want empty matching, got weight %g size %d", tc.l, tc.r, res.Weight, res.Size())
		}
		if len(res.MatchLeft) != tc.l {
			t.Errorf("(%d,%d): MatchLeft length %d", tc.l, tc.r, len(res.MatchLeft))
		}
	}
}

func TestMaxWeightMatchingSingleEdge(t *testing.T) {
	res := MaxWeightMatching(1, 1, func(int, int) float64 { return 7 })
	if res.Weight != 7 || res.MatchLeft[0] != 0 {
		t.Fatalf("got %+v, want weight 7 match [0]", res)
	}
}

func TestMaxWeightMatchingSkipsNonPositive(t *testing.T) {
	w := [][]float64{
		{-3, 0},
		{0, -1},
	}
	res := MaxWeightMatching(2, 2, denseWeights(w))
	if res.Weight != 0 || res.Size() != 0 {
		t.Fatalf("non-positive edges must stay unmatched, got %+v", res)
	}
}

func TestMaxWeightMatchingPrefersWeightOverCardinality(t *testing.T) {
	// Matching both pairs yields 1+1=2; matching only (0,1) yields 10.
	w := [][]float64{
		{1, 10},
		{0, 1},
	}
	res := MaxWeightMatching(2, 2, denseWeights(w))
	if !almostEqual(res.Weight, 10) {
		t.Fatalf("want weight 10 (drop cardinality), got %g (%v)", res.Weight, res.MatchLeft)
	}
	if res.MatchLeft[0] != 1 || res.MatchLeft[1] != Unmatched {
		t.Fatalf("want [1, Unmatched], got %v", res.MatchLeft)
	}
}

func TestMaxWeightMatchingClassic(t *testing.T) {
	// Known 3x3 assignment instance: optimum picks diag-ish 9+8+7=24?
	w := [][]float64{
		{9, 2, 7},
		{6, 4, 3},
		{5, 8, 1},
	}
	// Exhaustively: (0,0)+(1,2)+(2,1)=9+3+8=20; (0,0)+(1,1)+(2,2)=14;
	// (0,2)+(1,0)+(2,1)=7+6+8=21; best is 21.
	res := MaxWeightMatching(3, 3, denseWeights(w))
	oracle := BruteForceMaxWeight(3, 3, denseWeights(w))
	if !almostEqual(res.Weight, oracle.Weight) {
		t.Fatalf("hungarian %g != brute force %g", res.Weight, oracle.Weight)
	}
	if !almostEqual(res.Weight, 21) {
		t.Fatalf("want 21, got %g", res.Weight)
	}
}

func TestMaxWeightMatchingRectangular(t *testing.T) {
	// More lefts than rights and vice versa.
	w := [][]float64{
		{5, 1},
		{4, 2},
		{3, 9},
	}
	res := MaxWeightMatching(3, 2, denseWeights(w))
	oracle := BruteForceMaxWeight(3, 2, denseWeights(w))
	if !almostEqual(res.Weight, oracle.Weight) {
		t.Fatalf("hungarian %g != oracle %g", res.Weight, oracle.Weight)
	}
	if !res.Verify(3, 2, denseWeights(w)) {
		t.Fatalf("invalid matching %+v", res)
	}

	wt := [][]float64{{5, 4, 3}, {1, 2, 9}}
	res2 := MaxWeightMatching(2, 3, denseWeights(wt))
	oracle2 := BruteForceMaxWeight(2, 3, denseWeights(wt))
	if !almostEqual(res2.Weight, oracle2.Weight) {
		t.Fatalf("hungarian %g != oracle %g", res2.Weight, oracle2.Weight)
	}
}

func randomMatrix(rng *rand.Rand, l, r int, density float64, lo, hi float64) [][]float64 {
	m := make([][]float64, l)
	for i := range m {
		m[i] = make([]float64, r)
		for j := range m[i] {
			if rng.Float64() < density {
				m[i][j] = lo + rng.Float64()*(hi-lo)
			}
		}
	}
	return m
}

// TestSolversAgreeRandom cross-checks the Hungarian solver against brute
// force on random instances small enough to enumerate.
func TestSolversAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		l := 1 + rng.Intn(7)
		r := 1 + rng.Intn(7)
		m := randomMatrix(rng, l, r, 0.6, -2, 10)
		w := denseWeights(m)
		b := BruteForceMaxWeight(l, r, w)
		res := MaxWeightMatching(l, r, w)
		if !almostEqual(res.Weight, b.Weight) {
			t.Fatalf("trial %d (%dx%d): hungarian %g != brute %g\nmatrix %v", trial, l, r, res.Weight, b.Weight, m)
		}
		if !res.Verify(l, r, w) {
			t.Fatalf("trial %d: hungarian produced invalid matching %+v", trial, res)
		}
	}
}

// flowMatching solves the max-weight matching as min-cost flow on a
// Network (source → left → right → sink, unit capacities, cost −w on
// the positive edges), an implementation independent of the Hungarian
// solver, and reads the matching back from the edge flows.
func flowMatching(numLeft, numRight int, w WeightFunc) (Result, float64) {
	net := NewNetwork(2 + numLeft + numRight)
	src, snk := 0, 1+numLeft+numRight
	type edge struct {
		id   EdgeID
		l, r int
	}
	var edges []edge
	for l := 0; l < numLeft; l++ {
		net.AddEdge(src, 1+l, 1, 0)
		for r := 0; r < numRight; r++ {
			if wt := w(l, r); wt > 0 {
				edges = append(edges, edge{net.AddEdge(1+l, 1+numLeft+r, 1, -wt), l, r})
			}
		}
	}
	for r := 0; r < numRight; r++ {
		net.AddEdge(1+numLeft+r, snk, 1, 0)
	}
	_, profit := net.MaxProfit(src, snk)
	res := Result{MatchLeft: make([]int, numLeft)}
	for l := range res.MatchLeft {
		res.MatchLeft[l] = Unmatched
	}
	for _, e := range edges {
		if net.Flow(e.id) == 1 {
			res.MatchLeft[e.l] = e.r
			res.Weight += w(e.l, e.r)
		}
	}
	return res, profit
}

// TestSolversAgreeLarger cross-checks the Hungarian solver against a
// min-cost-flow matching built on Network, at sizes beyond brute
// force's reach.
func TestSolversAgreeLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		l := 10 + rng.Intn(40)
		r := 10 + rng.Intn(40)
		m := randomMatrix(rng, l, r, 0.3, 0, 100)
		w := denseWeights(m)
		h := MaxWeightMatching(l, r, w)
		if !h.Verify(l, r, w) {
			t.Fatalf("trial %d: invalid hungarian matching", trial)
		}
		flow, profit := flowMatching(l, r, w)
		if !almostEqual(h.Weight, profit) {
			t.Fatalf("trial %d (%dx%d): hungarian %g != network profit %g", trial, l, r, h.Weight, profit)
		}
		if !flow.Verify(l, r, w) || !almostEqual(flow.Weight, profit) {
			t.Fatalf("trial %d: network flow is not a matching of weight %g: %+v", trial, profit, flow)
		}
	}
}

// TestSolversIgnoreNaNWeights: a NaN edge weight means "no usable edge"
// for the Hungarian solver (NaN > 0 is false), and Verify rejects any matching
// that claims one. Regression for the offline engines, whose weight
// functions must never let a poisoned cost select an edge.
func TestSolversIgnoreNaNWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		l := 1 + rng.Intn(6)
		r := 1 + rng.Intn(6)
		m := randomMatrix(rng, l, r, 0.7, 0, 10)
		clean := make([][]float64, l)
		for i := range m {
			clean[i] = append([]float64(nil), m[i]...)
			for j := range m[i] {
				if rng.Float64() < 0.25 {
					m[i][j] = math.NaN() // poisoned: must behave as absent
					clean[i][j] = 0
				}
			}
		}
		want := BruteForceMaxWeight(l, r, denseWeights(clean)).Weight
		res := MaxWeightMatching(l, r, denseWeights(m))
		if !almostEqual(res.Weight, want) || math.IsNaN(res.Weight) {
			t.Fatalf("trial %d: hungarian with NaN edges = %g, want %g", trial, res.Weight, want)
		}
		if !res.Verify(l, r, denseWeights(m)) {
			t.Fatalf("trial %d: hungarian matched a NaN edge: %+v", trial, res)
		}
	}
	// Verify itself must reject a matching asserting a NaN edge.
	nanW := func(int, int) float64 { return math.NaN() }
	if (Result{MatchLeft: []int{0}, Weight: 1}).Verify(1, 1, nanW) {
		t.Fatal("Verify accepted a NaN-weight edge")
	}
}

// TestSolversRectangularTasksExceedPhones: regression for the offline
// reduction with more tasks (left) than phones (right) — and the
// transpose — where column-padded solvers must leave the surplus side
// unmatched rather than misindex.
func TestSolversRectangularTasksExceedPhones(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shapes := [][2]int{{9, 3}, {3, 9}, {12, 1}, {1, 12}, {7, 2}}
	for trial, shape := range shapes {
		l, r := shape[0], shape[1]
		m := randomMatrix(rng, l, r, 0.8, -1, 10)
		w := denseWeights(m)
		want := BruteForceMaxWeight(l, r, w).Weight
		res := MaxWeightMatching(l, r, w)
		if !almostEqual(res.Weight, want) {
			t.Fatalf("shape %d (%dx%d): hungarian %g != brute %g", trial, l, r, res.Weight, want)
		}
		if !res.Verify(l, r, w) {
			t.Fatalf("shape %d: hungarian invalid matching %+v", trial, res)
		}
		if got := res.Size(); got > l || got > r {
			t.Fatalf("shape %d: hungarian matched %d pairs on a %dx%d graph", trial, got, l, r)
		}
	}
}

// TestMatchingMonotoneInWeights: raising one matched-candidate weight
// never lowers the optimum (property of max-weight matching exploited by
// the VCG analysis).
func TestMatchingMonotoneInWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prop := func(seed int64) bool {
		r2 := rand.New(rand.NewSource(seed))
		l := 1 + r2.Intn(6)
		r := 1 + r2.Intn(6)
		m := randomMatrix(r2, l, r, 0.7, 0, 10)
		base := MaxWeightMatching(l, r, denseWeights(m)).Weight
		i := r2.Intn(l)
		j := r2.Intn(r)
		m[i][j] += 5
		raised := MaxWeightMatching(l, r, denseWeights(m)).Weight
		return raised >= base-1e-9
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMatchingSubsetBound: removing a right vertex can only lower the
// optimum, and by at most the maximum single edge weight incident to it.
func TestMatchingSubsetBound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		l := 1 + rng.Intn(6)
		r := 2 + rng.Intn(5)
		m := randomMatrix(rng, l, r, 0.7, 0, 10)
		w := denseWeights(m)
		full := MaxWeightMatching(l, r, w).Weight
		drop := rng.Intn(r)
		maskW := func(a, b int) float64 {
			if b == drop {
				return 0
			}
			return m[a][b]
		}
		reduced := MaxWeightMatching(l, r, maskW).Weight
		if reduced > full+1e-9 {
			t.Fatalf("removing a vertex increased optimum: %g > %g", reduced, full)
		}
		var maxEdge float64
		for i := 0; i < l; i++ {
			if m[i][drop] > maxEdge {
				maxEdge = m[i][drop]
			}
		}
		if full-reduced > maxEdge+1e-9 {
			t.Fatalf("optimum dropped %g, more than max incident edge %g", full-reduced, maxEdge)
		}
	}
}

func TestResultMatchRight(t *testing.T) {
	res := Result{MatchLeft: []int{2, Unmatched, 0}}
	right := res.MatchRight(3)
	want := []int{2, Unmatched, 0}
	for j := range want {
		if right[j] != want[j] {
			t.Fatalf("MatchRight = %v, want %v", right, want)
		}
	}
}

func TestResultVerifyRejects(t *testing.T) {
	w := func(int, int) float64 { return 1 }
	cases := []struct {
		name string
		res  Result
	}{
		{"double use", Result{MatchLeft: []int{0, 0}, Weight: 2}},
		{"out of range", Result{MatchLeft: []int{5}, Weight: 1}},
		{"wrong weight", Result{MatchLeft: []int{0}, Weight: 3}},
		{"wrong length", Result{MatchLeft: []int{0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.res.Verify(2, 2, w) {
				t.Fatal("Verify accepted an invalid matching")
			}
		})
	}
}

func BenchmarkMatchers(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	for _, size := range []int{20, 60, 120} {
		m := randomMatrix(rng, size, size, 0.5, 0, 100)
		w := denseWeights(m)
		b.Run("hungarian/"+itoa(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MaxWeightMatching(size, size, w)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
