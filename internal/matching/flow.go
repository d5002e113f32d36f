package matching

import "math"

// flowGraph is the residual graph behind Network: unit-augmenting
// min-cost flow with SPFA path search.
type flowEdge struct {
	to   int
	cap  int
	cost float64
}

type flowGraph struct {
	adj   [][]int // node -> edge ids (pairs: edge i and i^1 are duals)
	edges []flowEdge
}

func newFlowGraph(n int) *flowGraph {
	return &flowGraph{adj: make([][]int, n)}
}

func (g *flowGraph) addEdge(from, to, cap int, cost float64) {
	g.adj[from] = append(g.adj[from], len(g.edges))
	g.edges = append(g.edges, flowEdge{to: to, cap: cap, cost: cost})
	g.adj[to] = append(g.adj[to], len(g.edges))
	g.edges = append(g.edges, flowEdge{to: from, cap: 0, cost: -cost})
}

// augment finds the cheapest src->snk path in the residual graph and
// pushes one unit of flow along it. It returns the path cost and whether
// a path exists. The path is found with SPFA, which tolerates the
// negative edge and residual costs.
func (g *flowGraph) augment(src, snk int) (float64, bool) {
	n := len(g.adj)
	dist := make([]float64, n)
	inq := make([]bool, n)
	prevEdge := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	inq[src] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inq[u] = false
		for _, eid := range g.adj[u] {
			e := g.edges[eid]
			if e.cap <= 0 {
				continue
			}
			if nd := dist[u] + e.cost; nd < dist[e.to]-1e-12 {
				dist[e.to] = nd
				prevEdge[e.to] = eid
				if !inq[e.to] {
					inq[e.to] = true
					queue = append(queue, e.to)
				}
			}
		}
	}
	if math.IsInf(dist[snk], 1) {
		return 0, false
	}
	if dist[snk] >= 0 {
		return dist[snk], true
	}
	for v := snk; v != src; {
		eid := prevEdge[v]
		g.edges[eid].cap--
		g.edges[eid^1].cap++
		v = g.edges[eid^1].to
	}
	return dist[snk], true
}
