// Package serve is the BFS-as-a-service layer: everything a
// long-running query daemon needs between a TCP socket and the bfs
// engines, factored so it is testable without opening one.
//
// A Server owns a registry of resident graphs (loaded once at
// startup), a bounded admission gate, a shared workspace pool, and the
// process's telemetry spine. A reach or path query runs one two-sided
// point search (bfs.PointQuery), which stops where a frontier grown
// from each end meets the other; a khop query runs one traversal, and
// a multi query one per source:
//
//   - the request deadline becomes a context deadline threaded into
//     bfs.PointQuery or Engine.RunObserved, so a slow query stops at
//     its next level boundary and the client gets 504 instead of a
//     stuck connection;
//   - admission is a fixed number of execution slots plus a bounded
//     wait queue — a request that finds the queue full is rejected
//     immediately with 429 and a Retry-After hint, so overload sheds
//     load instead of collapsing into unbounded queueing;
//   - the traversal's workspace is leased from a bfs.WorkspacePool and
//     returned when the response is encoded, so steady-state queries
//     allocate no per-traversal buffers;
//   - the full-traversal engine is chosen per graph by a small planner
//     (serial for tiny graphs, the direction-optimizing hybrid
//     otherwise);
//   - every traversal and point search reports into internal/obs: an
//     always-on obs.RegistryRecorder per engine (point searches under
//     bfs.PointQueryEngine), and a 1-in-K sampled flight
//     recorder (obs.Sampler over obs.Ring) whose retained traversals
//     are dumped by the /debug/flight endpoint for post-hoc latency
//     forensics.
//
// The HTTP surface (Server.Handler) is JSON over POST /query plus the
// operational endpoints /graphs, /healthz, /readyz, /metrics (the one
// obs.Registry as typed Prometheus exposition), /metrics.json (the
// same series as a flat JSON object), /debug/flight and /debug/slo.
// SERVING.md documents the request and response
// schemas, the status-code contract, and a worked curl session;
// cmd/bfsd is the daemon wrapping this package and cmd/bfsload the
// matching load generator.
package serve
