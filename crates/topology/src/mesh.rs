//! Generic named-axis device meshes (veScale / PyTorch DTensor style).
//!
//! A [`DeviceMesh`] arranges ranks into an n-D grid with named axes (e.g.
//! `["pp", "dp", "tp"]`). Frameworks that describe placements per axis
//! (veScale's DTensor) use the mesh to translate "sharded along axis `tp`,
//! tensor dim 0" into a concrete [`crate::ShardSpec`] per rank.

use crate::{Result, TopologyError};
use serde::{Deserialize, Serialize};

/// An n-dimensional arrangement of ranks with named axes. Row-major: the
/// last axis varies fastest (matching [`crate::Parallelism`] when axes are
/// `["pp", "dp", "tp"]`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceMesh {
    axes: Vec<(String, usize)>,
}

impl DeviceMesh {
    /// Build a mesh from `(axis name, size)` pairs.
    pub fn new(axes: Vec<(String, usize)>) -> Result<DeviceMesh> {
        if axes.iter().any(|(_, s)| *s == 0) {
            return Err(TopologyError::ZeroDegree);
        }
        Ok(DeviceMesh { axes })
    }

    /// Convenience constructor from string literals.
    pub fn of(axes: &[(&str, usize)]) -> Result<DeviceMesh> {
        DeviceMesh::new(axes.iter().map(|(n, s)| (n.to_string(), *s)).collect())
    }

    /// Total number of ranks.
    pub fn world_size(&self) -> usize {
        self.axes.iter().map(|(_, s)| s).product()
    }

    /// This rank's coordinate along a named axis.
    pub fn coord(&self, rank: usize, axis: &str) -> Result<usize> {
        if rank >= self.world_size() {
            return Err(TopologyError::RankOutOfRange { rank, world: self.world_size() });
        }
        let mut rem = rank;
        for (name, size) in self.axes.iter().rev() {
            let c = rem % size;
            if name == axis {
                return Ok(c);
            }
            rem /= size;
        }
        Err(TopologyError::UnknownAxis(axis.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Parallelism;

    #[test]
    fn mesh_matches_parallelism_rank_order() {
        let p = Parallelism::new(2, 3, 4).unwrap();
        let m = DeviceMesh::of(&[("pp", 4), ("dp", 3), ("tp", 2)]).unwrap();
        assert_eq!(m.world_size(), p.world_size());
        for r in 0..p.world_size() {
            let c = p.coords(r).unwrap();
            assert_eq!(m.coord(r, "tp").unwrap(), c.tp);
            assert_eq!(m.coord(r, "dp").unwrap(), c.dp);
            assert_eq!(m.coord(r, "pp").unwrap(), c.pp);
        }
    }

    #[test]
    fn unknown_axis_and_bad_rank() {
        let m = DeviceMesh::of(&[("dp", 4)]).unwrap();
        assert!(matches!(m.coord(0, "tp"), Err(TopologyError::UnknownAxis(_))));
        assert!(matches!(m.coord(4, "dp"), Err(TopologyError::RankOutOfRange { .. })));
    }

    #[test]
    fn zero_axis_rejected() {
        assert!(DeviceMesh::of(&[("dp", 0)]).is_err());
    }
}
