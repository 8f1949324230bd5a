//! 3D parallelism (TP × DP × PP) rank arithmetic.

use crate::{Result, TopologyError};
use serde::{Deserialize, Serialize};

/// A 3D parallelism configuration.
///
/// Rank order follows the Megatron-LM convention used throughout the paper's
/// examples: **TP varies fastest, then DP, then PP**, i.e.
/// `global_rank = pp * (dp_degree * tp_degree) + dp * tp_degree + tp`.
///
/// Degenerate degrees express the other frameworks: FSDP/DDP are
/// `tp = pp = 1` with `dp = world size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Parallelism {
    /// Tensor-parallel degree.
    pub tp: usize,
    /// Data-parallel degree.
    pub dp: usize,
    /// Pipeline-parallel degree.
    pub pp: usize,
}

/// A rank's coordinates in the TP × DP × PP grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RankCoord {
    /// Index within the tensor-parallel group.
    pub tp: usize,
    /// Index within the data-parallel group.
    pub dp: usize,
    /// Pipeline stage index.
    pub pp: usize,
}

impl Parallelism {
    /// Construct, validating non-zero degrees.
    pub fn new(tp: usize, dp: usize, pp: usize) -> Result<Parallelism> {
        if tp == 0 || dp == 0 || pp == 0 {
            return Err(TopologyError::ZeroDegree);
        }
        Ok(Parallelism { tp, dp, pp })
    }

    /// Pure data parallelism over `dp` ranks (FSDP/DDP/ZeRO configurations).
    pub fn data_parallel(dp: usize) -> Result<Parallelism> {
        Parallelism::new(1, dp, 1)
    }

    /// Total number of ranks.
    pub fn world_size(&self) -> usize {
        self.tp * self.dp * self.pp
    }

    /// Coordinates of a global rank.
    pub fn coords(&self, rank: usize) -> Result<RankCoord> {
        if rank >= self.world_size() {
            return Err(TopologyError::RankOutOfRange { rank, world: self.world_size() });
        }
        Ok(RankCoord {
            tp: rank % self.tp,
            dp: (rank / self.tp) % self.dp,
            pp: rank / (self.tp * self.dp),
        })
    }

    /// Global rank of a coordinate triple.
    pub fn rank_of(&self, c: RankCoord) -> Result<usize> {
        if c.tp >= self.tp || c.dp >= self.dp || c.pp >= self.pp {
            return Err(TopologyError::RankOutOfRange {
                rank: c.pp * self.tp * self.dp + c.dp * self.tp + c.tp,
                world: self.world_size(),
            });
        }
        Ok(c.pp * self.tp * self.dp + c.dp * self.tp + c.tp)
    }

    /// Whether `rank` is the one that saves dataloader state files.
    ///
    /// Per the paper (Fig. 6): "the dataloader state file is generated only
    /// by training workers whose ranks for all parallelism degrees, except
    /// for DP degrees, are 0" — i.e. tp == 0 and pp == 0.
    pub fn holds_dataloader_state(&self, rank: usize) -> bool {
        match self.coords(rank) {
            Ok(c) => c.tp == 0 && c.pp == 0,
            Err(_) => false,
        }
    }

    /// Short human-readable description, e.g. `TP=4,DP=75,PP=8`.
    pub fn describe(&self) -> String {
        format!("TP={},DP={},PP={}", self.tp, self.dp, self.pp)
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_coord_round_trip_tp_fastest() {
        let p = Parallelism::new(2, 3, 4).unwrap();
        assert_eq!(p.world_size(), 24);
        // Rank 0 and 1 differ only in tp.
        assert_eq!(p.coords(0).unwrap(), RankCoord { tp: 0, dp: 0, pp: 0 });
        assert_eq!(p.coords(1).unwrap(), RankCoord { tp: 1, dp: 0, pp: 0 });
        assert_eq!(p.coords(2).unwrap(), RankCoord { tp: 0, dp: 1, pp: 0 });
        assert_eq!(p.coords(6).unwrap(), RankCoord { tp: 0, dp: 0, pp: 1 });
        for r in 0..p.world_size() {
            assert_eq!(p.rank_of(p.coords(r).unwrap()).unwrap(), r);
        }
    }

    #[test]
    fn zero_degree_rejected() {
        assert_eq!(Parallelism::new(0, 1, 1), Err(TopologyError::ZeroDegree));
    }

    #[test]
    fn dataloader_holders_are_tp0_pp0() {
        let p = Parallelism::new(2, 4, 2).unwrap();
        let holders: Vec<usize> =
            (0..p.world_size()).filter(|&r| p.holds_dataloader_state(r)).collect();
        // One per DP index, all in pp stage 0, tp index 0.
        assert_eq!(holders.len(), 4);
        for &h in &holders {
            let c = p.coords(h).unwrap();
            assert_eq!((c.tp, c.pp), (0, 0));
        }
    }
}
