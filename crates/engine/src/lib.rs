//! `dewrite-engine`: a sharded, multi-threaded memory-controller service
//! over the DeWrite dedup pipeline.
//!
//! The paper models one memory controller; production-scale encrypted NVMM
//! needs several operating concurrently. This crate partitions the line
//! space across N controller shards by address interleaving. Each
//! [`ShardController`] exclusively owns its slice's dedup state — hash +
//! inverted-hash tables (implicitly sharded by digest, since a digest only
//! lands where its address routed), address map + colocated CME counters
//! (sharded by line address), a metadata cache, a 3-bit predictor, and a
//! lock-free free-space map — so shards never share mutable
//! state and never take a lock.
//!
//! One worker loop serves every entry point. [`EngineService`] builds the
//! shard controllers from an [`EngineConfig`] and runs one worker thread
//! per shard over a bounded MPSC queue. Workers apply each shard's
//! requests in per-shard sequence order: an in-order request applies
//! directly, and a bounded reorder buffer holds out-of-order arrivals (so
//! any interleaving of network connections replays each shard's exact
//! trace subsequence). Submitters either take one answer per operation on
//! a completion lane, or, on a service with no lanes, ask for none.
//! [`run`] is a producer over the service: it partitions one fixed trace
//! by producer, submits staged chunks with back-pressure, asks for no
//! answers, and returns the drain's result. The network frontend submits
//! through non-blocking [`EngineService::try_submit`] and answers on
//! per-lane completion queues. Both end in the same drain: parked writes
//! flush, attached persistence checkpoints and syncs, shards scrub when
//! asked, and per-shard simulated reports fold into one deterministic
//! aggregate via `RunReport::merge_all`. The `loadgen` binary (in
//! `crates/net`) drives closed- and open-loop clients against 1..=16
//! shards — in-process or over a socket — and emits `BENCH_engine.json`,
//! including the **digest-sharding cost**: a shard only dedups against
//! content written through it, so the sharded dedup rate trails the
//! global (1-shard) rate; the delta is reported per app.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod service;
mod shard;

pub use dewrite_core::{DigestMode, MAX_CANDIDATE_COMPARES};
pub use dewrite_mem::{CacheStats, Replacement};
pub use engine::{run, Backoff, EngineConfig, EngineRun, Pacing, ShardSummary};
pub use service::{
    Completion, CompletionBody, EngineService, ServiceOp, ServiceRequest, CONTROL_SEQ,
};
pub use shard::{FsmPolicy, ShardController, ShardWrite};
