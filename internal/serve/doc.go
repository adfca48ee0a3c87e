// Package serve is the BFS-as-a-service layer: everything a
// long-running query daemon needs between a TCP socket and the bfs
// engines, factored so it is testable without opening one.
//
// A Server owns a registry of resident graphs (loaded once at
// startup), a bounded admission gate, a shared workspace pool, and the
// process's telemetry spine. Each query runs as one traversal:
//
//   - the request deadline becomes a context deadline threaded into
//     Engine.RunObserved, so a slow traversal stops at its next level
//     boundary and the client gets 504 instead of a stuck connection;
//   - admission is a fixed number of execution slots plus a bounded
//     wait queue — a request that finds the queue full is rejected
//     immediately with 429 and a Retry-After hint, so overload sheds
//     load instead of collapsing into unbounded queueing;
//   - the traversal's workspace is leased from a bfs.WorkspacePool and
//     returned when the response is encoded, so steady-state queries
//     allocate no per-traversal buffers;
//   - the engine is chosen per graph by a small planner (serial for
//     tiny graphs, the direction-optimizing hybrid by default, the
//     sharded engine for large graphs when the server is configured
//     with ranks), mirroring how bfsrun picks kernels;
//   - every traversal reports into internal/obs: an always-on
//     obs.RegistryRecorder per engine, and a 1-in-K sampled flight
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
