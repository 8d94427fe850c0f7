//! The Gaudi index space: the TPC equivalent of a CUDA grid.
//!
//! "Workload distribution is performed by partitioning the index space …
//! The index space can be divided up to five dimensions, and each member of
//! the index space is allocated with an indivisible unit of work processed
//! by a single TPC" (§2.2, Figure 3).

use dcm_core::error::{DcmError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum index-space rank supported by the TPC programming model.
pub const MAX_RANK: usize = 5;

/// One member (work item) of an index space: its coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IndexMember {
    coords: [usize; MAX_RANK],
    rank: usize,
}

impl IndexMember {
    /// Coordinate along dimension `d`.
    ///
    /// # Panics
    /// Panics if `d` exceeds the member's rank.
    #[must_use]
    pub fn coord(&self, d: usize) -> usize {
        assert!(d < self.rank, "dimension {d} out of rank {}", self.rank);
        self.coords[d]
    }

    /// Rank of the owning index space.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }
}

impl fmt::Display for IndexMember {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for d in 0..self.rank {
            if d > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.coords[d])?;
        }
        write!(f, ")")
    }
}

/// A dense index space of up to [`MAX_RANK`] dimensions.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IndexSpace {
    dims: Vec<usize>,
}

impl IndexSpace {
    /// Create an index space.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] if the rank exceeds [`MAX_RANK`],
    /// the rank is zero, or any dimension is zero.
    pub fn new(dims: impl Into<Vec<usize>>) -> Result<Self> {
        let dims = dims.into();
        if dims.is_empty() || dims.len() > MAX_RANK {
            return Err(DcmError::InvalidConfig(format!(
                "index space rank must be 1..={MAX_RANK}, got {}",
                dims.len()
            )));
        }
        if dims.contains(&0) {
            return Err(DcmError::InvalidConfig(
                "index space dimensions must be positive".to_owned(),
            ));
        }
        Ok(IndexSpace { dims })
    }

    /// A 1-D index space.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    #[must_use]
    pub fn linear(n: usize) -> Self {
        // dcm-lint: allow(P1) documented panic contract: n must be positive
        Self::new(vec![n]).expect("positive 1-D space is always valid")
    }

    /// Dimension extents.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Rank (1 to 5).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of members.
    #[must_use]
    pub fn members(&self) -> usize {
        self.dims.iter().product()
    }

    /// Member at flat position `i` (row-major over the dimensions).
    ///
    /// # Panics
    /// Panics if `i >= members()`.
    #[must_use]
    pub fn member(&self, i: usize) -> IndexMember {
        assert!(i < self.members(), "member {i} out of {}", self.members());
        let mut coords = [0usize; MAX_RANK];
        let mut rem = i;
        for d in (0..self.dims.len()).rev() {
            coords[d] = rem % self.dims[d];
            rem /= self.dims[d];
        }
        IndexMember {
            coords,
            rank: self.dims.len(),
        }
    }

    /// Iterate all members in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = IndexMember> + '_ {
        (0..self.members()).map(move |i| self.member(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_limits() {
        assert!(IndexSpace::new(vec![2, 3]).is_ok());
        assert!(IndexSpace::new(vec![1; 5]).is_ok());
        assert!(IndexSpace::new(vec![1; 6]).is_err());
        assert!(IndexSpace::new(Vec::new()).is_err());
        assert!(IndexSpace::new(vec![2, 0]).is_err());
    }

    #[test]
    fn members_and_coords_row_major() {
        let s = IndexSpace::new(vec![2, 3]).unwrap();
        assert_eq!(s.members(), 6);
        let m = s.member(4); // row-major: (1, 1)
        assert_eq!(m.coord(0), 1);
        assert_eq!(m.coord(1), 1);
        assert_eq!(m.to_string(), "(1,1)");
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn iter_visits_all_members_once() {
        let s = IndexSpace::new(vec![3, 2, 2]).unwrap();
        let all: Vec<_> = s.iter().collect();
        assert_eq!(all.len(), 12);
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), 12);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn member_bounds_checked() {
        let s = IndexSpace::linear(2);
        let _ = s.member(2);
    }
}
