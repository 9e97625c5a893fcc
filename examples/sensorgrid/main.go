// Sensor grid: leader election on a torus-shaped sensor network, exploring
// the β-ruling tradeoff. Growing β shrinks the leader population (fewer
// radio-active coordinators → less energy) at the cost of longer routes to a
// leader (higher latency). β=1 is an MIS; β>=2 uses the paper's recursive
// deterministic sparsification.
package main

import (
	"fmt"
	"log"

	mprs "github.com/rulingset/mprs"
)

func main() {
	// Random geometric (unit-disk) graph: 8000 sensors scattered uniformly,
	// radio range 0.035 — the standard wireless sensor-network model.
	g, err := mprs.BuildGraph("geometric:n=8000,r=0.035", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sensor network: %v (unit-disk)\n", g)
	fmt.Println()
	fmt.Printf("%-6s %-9s %-8s %-14s %-10s\n", "beta", "leaders", "rounds", "radius (meas.)", "words")

	for beta := 1; beta <= 4; beta++ {
		res, err := mprs.DetRulingSet(g, beta, mprs.Options{Machines: 8, ChunkBits: 4})
		if err != nil {
			log.Fatal(err)
		}
		if err := mprs.Check(g, res); err != nil {
			log.Fatalf("beta=%d: %v", beta, err)
		}
		radius := mprs.RulingRadius(g, res.Members)
		fmt.Printf("%-6d %-9d %-8d %-14d %-10d\n",
			beta, len(res.Members), res.Stats.Rounds, radius, res.Stats.Words)
	}

	fmt.Println()
	fmt.Println("tradeoff: larger beta -> fewer leaders (less coordination energy),")
	fmt.Println("longer worst-case route to a leader (higher latency), and a smaller")
	fmt.Println("residual instance for the final local solve.")
}
