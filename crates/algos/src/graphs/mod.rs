//! List, tree and graph CGM algorithms (the paper's Figure 5 Group C).
//!
//! All programs use `λ = O(log v)`–`O(log N)` communication rounds with
//! `O(N/v)`-item h-relations, so their EM-CGM simulations run in
//! `O((N/(pDB))·log)` parallel I/Os — the Group C rows of Figure 5.

pub mod connectivity;
pub mod contraction;
pub mod euler;
pub mod lca;
pub mod listrank;
pub mod rmq;
pub mod tv;

pub use connectivity::{CgmConnectivity, ConnState};
pub use contraction::{CgmExprEval, ExprEvalState, MOD};
pub use euler::{CgmEulerTour, EulerState};
pub use lca::{CgmBatchedLca, LcaState};
pub use listrank::{CgmListRank, ListRankState};
pub use rmq::{CgmRangeMinMax, RmqState};
pub use tv::{
    cgm_biconnected_components, cgm_open_ear_decomposition, CgmRootTree, CompositionReport, Exec,
};

/// Owner of global index `g` under the block distribution of `n` items
/// over `v` processors.
pub(crate) fn owner(n: usize, v: usize, g: usize) -> usize {
    BlockOwner::new(n, v).of(g)
}

/// [`owner`] with the distribution's constants computed once, for
/// loops that look up many owners under the same `(n, v)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockOwner {
    /// Size of the first `extra` blocks (`⌊n/v⌋ + 1`).
    big: usize,
    /// Size of the remaining blocks (`⌊n/v⌋`, at least 1).
    small: usize,
    /// Number of big blocks (`n mod v`).
    extra: usize,
    /// First index of the first small block.
    boundary: usize,
}

impl BlockOwner {
    pub(crate) fn new(n: usize, v: usize) -> Self {
        let base = n / v;
        let extra = n % v;
        Self { big: base + 1, small: base.max(1), extra, boundary: extra * (base + 1) }
    }

    /// Owner of global index `g`.
    #[inline]
    pub(crate) fn of(&self, g: usize) -> usize {
        if g < self.boundary {
            g / self.big
        } else {
            self.extra + (g - self.boundary) / self.small
        }
    }
}

/// Number of pointer-jumping iterations that guarantee convergence for
/// `n` elements.
pub(crate) fn jump_iters(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jump_iter_counts() {
        assert_eq!(jump_iters(0), 0);
        assert_eq!(jump_iters(1), 0);
        assert_eq!(jump_iters(2), 1);
        assert_eq!(jump_iters(3), 2);
        assert_eq!(jump_iters(8), 3);
        assert_eq!(jump_iters(9), 4);
    }

    #[test]
    fn owner_covers_range() {
        for (n, v) in [(10usize, 3usize), (7, 7), (100, 8)] {
            for g in 0..n {
                let o = owner(n, v, g);
                let r = cgmio_data::block_split_ranges(n, v, o);
                assert!(r.contains(&g), "n={n} v={v} g={g}");
            }
        }
    }
}
