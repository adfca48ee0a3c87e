// Command predict is the paper's on-line stage as a standalone tool:
// load a trained switching-point model (cmd/trainer), describe a graph
// (either by R-MAT parameters or by loading a CSR file), and print the
// predicted (M1, N1) boundary and (M2, N2) coprocessor thresholds for
// Algorithm 3, optionally simulating the resulting plan.
//
//	predict -model model.gob -scale 16 -edgefactor 16
//	predict -model model.gob -graph g.csr -simulate
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/core"
	"crossbfs/internal/graph"
	"crossbfs/internal/rmat"
	"crossbfs/internal/tuner"
)

func main() {
	var (
		modelPath  = flag.String("model", "model.gob", "trained model (see cmd/trainer)")
		scale      = flag.Int("scale", 16, "R-MAT SCALE when generating")
		edgeFactor = flag.Int("edgefactor", 16, "R-MAT edge factor when generating")
		seed       = flag.Uint64("seed", 1, "R-MAT seed")
		graphPath  = flag.String("graph", "", "load a CSR graph file instead of generating")
		simulate   = flag.Bool("simulate", false, "also simulate the adaptive plan vs a fixed one")
	)
	flag.Parse()

	if err := run(*modelPath, *scale, *edgeFactor, *seed, *graphPath, *simulate); err != nil {
		fmt.Fprintln(os.Stderr, "predict:", err)
		os.Exit(1)
	}
}

func run(modelPath string, scale, edgeFactor int, seed uint64, graphPath string, simulate bool) error {
	model, err := tuner.LoadModel(modelPath)
	if err != nil {
		return err
	}

	params := rmat.DefaultParams(scale, edgeFactor)
	params.Seed = seed
	var g *graph.CSR
	if graphPath != "" {
		if g, err = graph.Load(graphPath); err != nil {
			return err
		}
		// Graph files do not carry construction parameters; assume the
		// Graph 500 defaults for the A-D features and derive V, E.
		fmt.Println("note: assuming Graph 500 A/B/C/D for a loaded graph file")
	} else {
		if g, err = rmat.Generate(params); err != nil {
			return err
		}
	}
	gi := tuner.GraphInfoFor(params, g)

	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	boundary := model.Predict(tuner.Sample{Graph: gi, TD: tuner.ArchInfoOf(cpu), BU: tuner.ArchInfoOf(gpu)})
	onGPU := model.Predict(tuner.Sample{Graph: gi, TD: tuner.ArchInfoOf(gpu), BU: tuner.ArchInfoOf(gpu)})

	fmt.Printf("graph: %d vertices, %d directed edges\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("predicted CPU->GPU boundary (M1, N1): (%.1f, %.1f)\n", boundary.M, boundary.N)
	fmt.Printf("predicted on-GPU switching  (M2, N2): (%.1f, %.1f)\n", onGPU.M, onGPU.N)

	if !simulate {
		return nil
	}
	src, ok := firstSource(g)
	if !ok {
		return fmt.Errorf("graph has no edges to traverse")
	}
	tr, err := bfs.TraceFrom(context.Background(), g, src, nil, nil)
	if err != nil {
		return err
	}
	link := archsim.PCIe()
	adaptive := core.Simulate(tr, core.CrossPlan{
		Host: cpu, Coprocessor: gpu,
		M1: boundary.M, N1: boundary.N, M2: onGPU.M, N2: onGPU.N,
	}, link)
	fixed := core.Simulate(tr, core.CrossPlan{
		Host: cpu, Coprocessor: gpu, M1: 64, N1: 64, M2: 64, N2: 64,
	}, link)
	fmt.Printf("\nsimulated from source %d:\n", src)
	fmt.Printf("  adaptive plan:  %.6fs (%.3f GTEPS)\n", adaptive.Total, adaptive.GTEPS())
	fmt.Printf("  fixed M=N=64:   %.6fs (%.3f GTEPS)\n", fixed.Total, fixed.GTEPS())
	return nil
}

func firstSource(g *graph.CSR) (int32, bool) {
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) > 0 {
			return int32(v), true
		}
	}
	return 0, false
}
