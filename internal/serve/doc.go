// Package serve is the simulation-as-a-service engine behind the
// imobif-served daemon: an HTTP/JSON front door that accepts scenario
// documents (the declarative JSON of internal/scenario, extended with
// seed, trials, and output options), runs them on a bounded worker pool,
// and serves results, traces, and job lifecycle over five endpoints:
//
//	POST   /v1/jobs            submit a scenario; 202 queued, 200 cache hit,
//	                           429 + Retry-After on queue overflow
//	GET    /v1/jobs/{id}       job status and, once terminal, the result
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET    /v1/jobs/{id}/trace the run's JSONL event trace (output.trace)
//	GET    /healthz            liveness plus queue/worker/cache gauges
//
// # Dataflow
//
// A submission is parsed and validated by scenario.Load, fingerprinted
// (scenario.Fingerprint hashes the canonical document), and resolved in
// one critical section against three structures: a bounded LRU of
// completed jobs keyed by fingerprint (hit → the finished job is
// returned immediately), a map of in-flight jobs by fingerprint
// (hit → the submission coalesces onto the running job and shares its
// id), and a FIFO queue feeding the worker pool (full → 429). Each
// worker owns one job at a time: it builds the world from the scenario,
// runs it under the job's context, serializes the result once, and
// publishes the terminal job back into the cache — so N identical
// concurrent submissions execute the simulation exactly once.
//
// # Determinism contract
//
// The simulator is deterministic in the scenario document: a scenario's
// canonical form fully determines its result bytes. The result JSON is
// marshaled exactly once, when the job finishes, and every response —
// first poll, cache hit, a different server's cold run of the same
// document — carries those bytes verbatim, so cached results are
// byte-identical to recomputing them. Multi-trial jobs run their trials
// sequentially inside one worker, trial i seeded by SplitMix64 seed
// derivation (internal/sweep) from the document's placement, fault and
// motion seeds, so the per-trial results are independent of worker
// scheduling. Each trial runs through RunTrial and the runs merge
// through Merge; the distributed sweep fabric (internal/dsweep) calls the
// same two functions, so its results match a service job's bytes.
//
// Cancellation (DELETE, or server shutdown past its drain deadline)
// flips the job's context; the simulator checks it between events only,
// so a canceled job still reports a well-formed deterministic partial
// result with its canceled flag set. Shutdown drains: accepted jobs
// (queued or running) are executed to completion before Shutdown
// returns, and new submissions are refused with 503.
package serve
