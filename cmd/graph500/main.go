// Command graph500 runs the two-kernel Graph 500 benchmark (the
// paper's evaluation methodology, §II-D): kernel 1 constructs the CSR
// graph from a generated R-MAT edge list, kernel 2 runs a validated
// BFS from each sampled search key. Output follows the official
// key:value result layout.
//
// Two execution modes:
//
//	-mode real   times the actual Go hybrid BFS on this machine
//	-mode sim    prices a modeled plan (-plan cpucb|gpucb|miccb|cross)
//
// Examples:
//
//	graph500 -scale 16 -mode real
//	graph500 -scale 17 -mode sim -plan cross -roots 64
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/core"
	"crossbfs/internal/graph500"
	"crossbfs/internal/rmat"
)

func main() {
	var (
		scale      = flag.Int("scale", 16, "log2 of the number of vertices")
		edgeFactor = flag.Int("edgefactor", 16, "generated edges per vertex")
		seed       = flag.Uint64("seed", 1, "generator seed")
		numRoots   = flag.Int("roots", graph500.DefaultNumRoots, "number of BFS search keys")
		mode       = flag.String("mode", "real", "'real' (wall-clock host BFS) or 'sim' (modeled plan)")
		planName   = flag.String("plan", "cross", "sim mode plan: cputd, cpucb, gpucb, miccb, cross")
		m          = flag.Float64("m", 64, "switching threshold M")
		n          = flag.Float64("n", 64, "switching threshold N")
		workers    = flag.Int("workers", 0, "real-mode worker count (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if err := run(*scale, *edgeFactor, *seed, *numRoots, *mode, *planName, *m, *n, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "graph500:", err)
		os.Exit(1)
	}
}

func run(scale, edgeFactor int, seed uint64, numRoots int, mode, planName string, m, n float64, workers int) error {
	// Kernel 1: edge generation + CSR construction, timed.
	params := rmat.DefaultParams(scale, edgeFactor)
	params.Seed = seed
	startK1 := time.Now()
	g, err := rmat.Generate(params)
	if err != nil {
		return err
	}
	construction := time.Since(startK1).Seconds()

	roots := graph500.SampleRoots(g, numRoots, seed)
	if len(roots) == 0 {
		return fmt.Errorf("graph has no usable search keys")
	}

	report := &graph500.Report{
		Scale:            scale,
		EdgeFactor:       edgeFactor,
		NumRoots:         len(roots),
		ConstructionTime: construction,
	}

	var times, teps []float64
	switch mode {
	case "real":
		times = make([]float64, len(roots))
		teps = make([]float64, len(roots))
		// One workspace serves the whole key sweep so measured wall
		// times reflect kernel work, not allocator churn between roots.
		ws := bfs.NewWorkspace(g.NumVertices())
		for i, root := range roots {
			res, timing, err := core.Measure(g, root, bfs.MN{M: m, N: n}, "hybrid", workers, ws)
			if err != nil {
				return err
			}
			if err := bfs.Validate(g, res); err != nil {
				return fmt.Errorf("root %d failed validation: %w", root, err)
			}
			times[i] = timing.Total.Seconds()
			teps[i] = timing.TEPS()
		}
	case "sim":
		plan, err := selectPlan(planName, m, n)
		if err != nil {
			return err
		}
		// graph500.Run samples the same roots and validates and
		// invariant-checks each traversal before it prices it.
		res, err := graph500.Run(g, plan, archsim.PCIe(), numRoots, seed)
		if err != nil {
			return err
		}
		times, teps = res.Times, res.TEPS
	default:
		return fmt.Errorf("unknown mode %q (want real or sim)", mode)
	}

	report.Time = graph500.Summarize(times)
	report.TEPS = graph500.Summarize(teps)
	return report.Write(os.Stdout)
}

func selectPlan(name string, m, n float64) (core.Plan, error) {
	cpu, gpu, mic := archsim.SandyBridge(), archsim.KeplerK20x(), archsim.KnightsCorner()
	switch name {
	case "cputd":
		return core.FixedDirection(cpu, bfs.TopDown), nil
	case "cpucb":
		return core.Combination(cpu, m, n), nil
	case "gpucb":
		return core.Combination(gpu, m, n), nil
	case "miccb":
		return core.Combination(mic, m, n), nil
	case "cross":
		return core.CrossPlan{Host: cpu, Coprocessor: gpu, M1: m, N1: n, M2: m, N2: n}, nil
	default:
		return nil, fmt.Errorf("unknown plan %q", name)
	}
}
