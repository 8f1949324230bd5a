//! # bcp-sim — paper-scale checkpointing simulator
//!
//! The paper's evaluation runs on 32–8960 GPUs against a production HDFS.
//! Per the DESIGN.md substitution table, this crate executes the *real
//! planner outputs* (byte/item profiles computed from `bcp-model` meta
//! states through `bcp-core`'s planning) in **virtual time** under a
//! flow-level cost model, regenerating every evaluation table:
//!
//! * [`ps`] — processor-sharing finish times: the flow-level network /
//!   storage contention primitive (per-flow caps + a shared bottleneck).
//! * [`cost`] — the calibrated cost model: PCIe, InfiniBand, serialization,
//!   HDFS client/cluster bandwidths, NameNode metadata costs, collective
//!   setup costs. Every constant documents its provenance.
//! * [`workload`] — per-rank save/load byte-and-item profiles for a
//!   (model, framework, parallelism) triple, computed from real meta-tensor
//!   state dicts on representative ranks.
//! * [`pipeline`] — the save / load / reshard pipelines in virtual time,
//!   with per-phase breakdowns, under any [`pipeline::SystemConfig`]
//!   (ByteCheckpoint, DCP-like, MCP-like, and each ablation step).
//! * [`ettr`] — the Appendix C effective-training-time-ratio math.
//! * [`trace`] — the synthetic platform job trace behind Table 2.
//! * [`experiments`] — one function per table (1, 2, 4, 5, 6, 7, 8, 9),
//!   returning both structured rows and formatted text.

pub mod cost;
pub mod ettr;
pub mod experiments;
pub mod pipeline;
pub mod ps;
pub mod trace;
pub mod workload;

pub use cost::CostModel;
pub use pipeline::{LoadSim, SaveSim, SystemConfig};
pub use workload::WorkloadProfile;
