// Social-graph churn: drive the batch-dynamic connectivity layer with
// friend/unfriend batches over an RMAT-style power-law graph and answer
// "are these two users in the same community component?" queries between
// batches.
//
// This is the workload the dynamic-trees literature motivates dynamic
// connectivity with: the graph is nothing like a forest (most friend
// edges close cycles and land in the non-tree structure), unfriend
// batches routinely cut spanning-forest edges, and the replacement-edge
// search keeps component counts exact without ever recomputing from
// scratch. The per-phase telemetry printed at the end shows where the
// time went — in particular, what fraction the replacement search cost.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/conn"
	"repro/internal/gen"
	"repro/internal/rng"
)

func main() {
	const (
		n      = 50000
		avgDeg = 8
		batch  = 5000
		rounds = 10
	)
	// RMAT-style "twit-social" stand-in, deduplicated to a simple graph
	// (the connectivity layer's contract: no self loops, no repeats).
	raw := gen.SocialGraph(n, avgDeg, 42)
	simple := conn.SimplifyEdges(raw.Edges)
	edges := make([]ufotree.Edge, len(simple))
	for i, e := range simple {
		edges[i] = ufotree.Edge{U: e.U, V: e.V}
	}

	// WithWorkers(0) = GOMAXPROCS workers.
	g := ufotree.NewDynamicGraph(raw.N, ufotree.WithWorkers(0))
	fmt.Printf("social graph: %d users, %d friend edges, %d workers, %d levels\n",
		raw.N, len(edges), g.Workers(), g.Levels())

	// Bootstrap the network in add batches; edges closing cycles become
	// non-tree edges, and a malformed batch comes back as a typed error
	// instead of a panic.
	var agg ufotree.PhaseStats
	for lo := 0; lo < len(edges); lo += batch {
		hi := min(lo+batch, len(edges))
		if err := g.AddEdges(edges[lo:hi]); err != nil {
			log.Fatalf("friend batch rejected: %v", err)
		}
		agg.Accumulate(g.PhaseStats())
	}
	fmt.Printf("bootstrap: %d edges live, %d components\n", g.EdgeCount(), g.ComponentCount())

	// Churn: every round unfriends a batch (often severing spanning-forest
	// edges — the replacement search repairs connectivity from the
	// non-tree pool), answers a connectivity batch, and re-friends.
	r := rng.New(7)
	for round := 0; round < rounds; round++ {
		churn := make([]ufotree.Edge, 0, batch)
		picked := make(map[int]bool, batch)
		for len(churn) < batch {
			i := r.Intn(len(edges))
			if picked[i] {
				continue
			}
			picked[i] = true
			churn = append(churn, edges[i])
		}
		if err := g.DeleteEdges(churn); err != nil {
			log.Fatalf("unfriend batch rejected: %v", err)
		}
		agg.Accumulate(g.PhaseStats())
		comps := g.ComponentCount()

		pairs := make([][2]int, batch)
		for i := range pairs {
			pairs[i] = [2]int{r.Intn(raw.N), r.Intn(raw.N)}
		}
		connected := 0
		for _, ok := range g.BatchConnected(pairs) {
			if ok {
				connected++
			}
		}
		if err := g.AddEdges(churn); err != nil {
			log.Fatalf("refriend batch rejected: %v", err)
		}
		agg.Accumulate(g.PhaseStats())
		fmt.Printf("round %2d: unfriended %d -> %d components, %d/%d query pairs connected, refriended\n",
			round, len(churn), comps, connected, len(pairs))
	}

	// Where did batch time go? The search/promote rows are the
	// connectivity layer's own cost; forest_link/forest_cut is the UFO
	// engine underneath.
	fmt.Printf("\nconnectivity pipeline over %d batches (%d adds, %d deletes, %d search sweeps, %d levels):\n",
		agg.Batches, agg.Links, agg.Cuts, agg.SearchRounds, agg.Depth)
	for _, ph := range agg.Phases {
		if ph.Calls == 0 {
			continue
		}
		share := 0.0
		if agg.Total > 0 {
			share = float64(ph.Time) / float64(agg.Total) * 100
		}
		fmt.Printf("  %-12s %8.1fms  %5.1f%%  (%d calls, %d items)\n",
			ph.Name, float64(ph.Time.Microseconds())/1000, share, ph.Calls, ph.Items)
	}
}
