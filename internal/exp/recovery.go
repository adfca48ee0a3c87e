package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/core"
	"crossbfs/internal/fault"
)

// RecoveryRow records how the partitioned engine survives one
// rank-fault scenario at one rank count: the recovery work the real
// traversal performed (ranks fenced, levels replayed, exchange
// retries, checkpoint volume) and the modeled cost relative to the
// clean sharded run of the same workload.
type RecoveryRow struct {
	Scenario   string
	Ranks      int
	RanksLost  int
	Recoveries int
	Retries    int   // exchange attempts re-run after an injected drop
	CkptBytes  int64 // encoded per-level frontier deltas
	Total      float64
	Overhead   float64 // Total / clean sharded Total at this rank count
	Escalated  bool    // all ranks lost; replanned onto a single device
	Failed     bool    // even the escalation could not finish
}

// defaultRecoveryScenarios is the ladder the experiment walks when no
// -faults spec is given: each rung exercises one recovery mechanism
// (checkpoint replay after a crash, staggered double crash, degraded
// collectives under lag, retry/backoff under drops, total collapse).
func defaultRecoveryScenarios() []string {
	return []string{
		"rankcrash:1@2",
		"rankcrash:0@2;rankcrash:1@3",
		"ranklag:1x4@2",
		"exchdrop:0.2",
		"rankcrash:1@2;exchdrop:0.1",
		"rankcrash:0@1;rankcrash:1@1;rankcrash:2@1;rankcrash:3@1",
	}
}

// Recovery runs the partitioned engine for real under a ladder of
// rank-fault scenarios (or a single user-supplied spec) at each rank
// count: crashes, lag, and dropped collectives are injected at the
// exchange seams, survivors replay from per-level checkpoints, and
// every surviving traversal is validated against the Graph 500 rules
// before its row is recorded. ctx is checked between runs so a
// deadline cuts the sweep at a row boundary.
func Recovery(ctx context.Context, cfg Config, spec string, seed uint64) ([]RecoveryRow, error) {
	cfg.setDefaults()
	g, _, _, err := cfg.workload()
	if err != nil {
		return nil, err
	}
	src, ok := firstUsableSource(g, cfg.Seed)
	if !ok {
		return nil, fmt.Errorf("exp: graph has no non-isolated vertex")
	}
	specs := defaultRecoveryScenarios()
	if spec != "" {
		specs = []string{spec}
	}
	ws := bfs.DefaultPool.Get(g.NumVertices())
	defer bfs.DefaultPool.Put(ws)

	var rows []RecoveryRow
	for _, ranks := range []int{2, 4, 8} {
		plan := core.ShardedPlan{
			Device: archsim.SandyBridge(),
			Ranks:  ranks,
			Fabric: archsim.SMP(ranks),
			M:      bfs.DefaultM,
			N:      bfs.DefaultN,
		}
		_, clean, err := core.ExecuteShardedResilient(ctx, g, src, plan, ws, core.ResilientOptions{})
		if err != nil {
			return rows, err
		}
		rows = append(rows, RecoveryRow{
			Scenario: "clean", Ranks: ranks, Total: clean.Total, Overhead: 1,
		})
		for _, s := range specs {
			if err := ctx.Err(); err != nil {
				return rows, err
			}
			sched, err := fault.Parse(s, seed)
			if err != nil {
				return nil, fmt.Errorf("scenario %q: %w", s, err)
			}
			res, t, err := core.ExecuteShardedResilient(ctx, g, src, plan, ws,
				core.ResilientOptions{Schedule: sched})
			if err != nil {
				var fe *fault.Error
				if !errors.As(err, &fe) {
					return nil, fmt.Errorf("scenario %q: %w", s, err)
				}
				rows = append(rows, RecoveryRow{Scenario: s, Ranks: ranks, Failed: true})
				continue
			}
			if err := bfs.Validate(g, res); err != nil {
				return nil, fmt.Errorf("scenario %q ranks %d: recovered traversal invalid: %w", s, ranks, err)
			}
			rows = append(rows, RecoveryRow{
				Scenario:   s,
				Ranks:      ranks,
				RanksLost:  res.Recovery.RanksLost,
				Recoveries: res.Recovery.Recoveries,
				Retries:    res.Recovery.ExchangeRetries,
				CkptBytes:  res.Recovery.CheckpointBytes,
				Total:      t.Total,
				Overhead:   t.Total / clean.Total,
				Escalated:  strings.HasSuffix(t.Plan, "-degraded"),
			})
		}
	}
	return rows, nil
}

// RenderRecovery prints the rank-fault recovery sweep as a table.
func RenderRecovery(w io.Writer, rows []RecoveryRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "scenario\tranks\tlost\trecoveries\tretries\tckpt\ttotal\toverhead")
	for _, r := range rows {
		if r.Failed {
			fmt.Fprintf(tw, "%s\t%d\tFAILED\t-\t-\t-\t-\t-\n", r.Scenario, r.Ranks)
			continue
		}
		total := fmt.Sprintf("%.6fs", r.Total)
		if r.Escalated {
			total += " (escalated)"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%dB\t%s\t%.2fx\n",
			r.Scenario, r.Ranks, r.RanksLost, r.Recoveries, r.Retries, r.CkptBytes, total, r.Overhead)
	}
	fmt.Fprintln(tw, "(real partitioned traversals under injection; every surviving run re-validated)")
	return tw.Flush()
}

// RecoveryCSV writes the rows in machine-readable form.
func RecoveryCSV(w io.Writer, rows []RecoveryRow) error {
	if _, err := fmt.Fprintln(w, "scenario,ranks,ranks_lost,recoveries,retries,ckpt_bytes,total_s,overhead,escalated,failed"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%q,%d,%d,%d,%d,%d,%.9f,%.4f,%t,%t\n",
			r.Scenario, r.Ranks, r.RanksLost, r.Recoveries, r.Retries, r.CkptBytes,
			r.Total, r.Overhead, r.Escalated, r.Failed); err != nil {
			return err
		}
	}
	return nil
}
