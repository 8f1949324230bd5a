//! # bcp-bench — the paper's table and figure index
//!
//! * [`figures`] — the evaluation figures that come from *real execution*
//!   (not the simulator): the Fig. 11 heat map and Fig. 12 breakdown from an
//!   instrumented 32-rank save, and the Figs. 13/14/16/17 correctness
//!   curves from deterministic training with save/resume/reshard cycles.
//! * [`harness`] — the multi-rank job runner the figures share.
//!
//! The `repro` binary prints every table (from `bcp-sim`) and figure. This
//! crate times nothing: the repository's one measuring instrument is
//! `perf/` (see `perf/README.md`).

pub mod figures;
pub mod harness;
