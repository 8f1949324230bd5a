//! The three workloads. Shapes are fixed; `--seed` only changes tensor
//! values (through `TrainerConfig.seed`) and the job-root name.

use bytecheckpoint::model::{ArchKind, TransformerConfig};
use bytecheckpoint::prelude::*;

/// A framework with the parallelism it runs under: the saving side of a
/// workload, or the side a reshard load targets.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub fw: Framework,
    pub par: Parallelism,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    Memory,
    Disk,
}

pub struct Workload {
    pub name: &'static str,
    pub arch: TransformerConfig,
    /// What saves, and what `load_s` loads into.
    pub saving: Side,
    /// What `reshard_load_s` loads into.
    pub target: Side,
    pub store: StoreKind,
}

fn gpt(name: &str, hidden: usize, layers: usize) -> TransformerConfig {
    TransformerConfig {
        name: name.into(),
        kind: ArchKind::Gpt,
        hidden,
        heads: 8,
        layers,
        vocab: 8192,
        ffn_mult: 4,
        dtype: DType::BF16,
        num_experts: 0,
    }
}

fn side(fw: Framework, tp: usize, dp: usize) -> Side {
    Side { fw, par: Parallelism::new(tp, dp, 1).expect("non-zero degrees") }
}

const MEGATRON: Framework = Framework::Megatron { distributed_optimizer: true };

/// Every workload, in the order `run.sh` runs them. The reasons live in
/// `BENCHMARK.json` and `perf/README.md`.
pub fn all() -> Vec<Workload> {
    // 10.5 M parameters: 147 MB of bf16 model + fp32 master/exp_avg/exp_avg_sq.
    let dense = || gpt("perf-dense", 256, 8);
    vec![
        Workload {
            name: "dense_tp2_mem",
            arch: dense(),
            saving: side(MEGATRON, 2, 1),
            target: side(MEGATRON, 1, 2),
            store: StoreKind::Memory,
        },
        Workload {
            name: "zero3_dp2_disk",
            arch: dense(),
            saving: side(Framework::Fsdp { zero3: true }, 1, 2),
            target: side(MEGATRON, 2, 1),
            store: StoreKind::Disk,
        },
        Workload {
            // ≈3.1 k plan items per rank over ≈19 MB.
            name: "manytensor_dp2_disk",
            arch: gpt("perf-manytensor", 32, 64),
            saving: side(MEGATRON, 1, 2),
            target: side(MEGATRON, 2, 1),
            store: StoreKind::Disk,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// Engine options of this workload's jobs. Seed `DiskBackend` derives
    /// its temp name with `Path::with_extension`, which maps the split parts
    /// `optim_0.bin.part0..3` onto one temp path, so a default-config save
    /// of a file above 8 MiB races with itself and fails; the disk workloads
    /// turn split upload off until storage is fixed (the traced run reports
    /// the defect as `disk_default_split_ok`).
    pub fn options(&self) -> WorkflowOptions {
        let mut o = WorkflowOptions::default();
        if self.store == StoreKind::Disk {
            o.save.split_threshold = u64::MAX;
        }
        o
    }

    /// Both ranks' materialized states of `side`, one training step in.
    pub fn states(&self, side: Side, seed: u64) -> Vec<TrainState> {
        crate::on_ranks(0..crate::RANKS, |rank, _| {
            let mut s = build_train_state(&self.arch, side.fw, side.par, rank, true);
            TrainerConfig { seed, ..TrainerConfig::default() }.step(&mut s, 0);
            s
        })
    }

    /// Logical state bytes: what one rank holds when it holds everything.
    pub fn state_bytes(&self) -> u64 {
        let whole = Parallelism::new(1, 1, 1).expect("non-zero degrees");
        let s = build_train_state(&self.arch, self.saving.fw, whole, 0, false);
        s.model.local_bytes() + s.optimizer.local_bytes()
    }
}
