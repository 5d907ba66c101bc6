//! Structural parameters derived from the node size in bytes.

/// R*-tree parameters.
///
/// The paper derives node capacity from the node size in bytes: a 16-byte
/// header plus `2·D·4 + 4` bytes per entry (single-precision box corners and
/// a child pointer), which reproduces the paper's "node capacities are 50
/// and 36 for 2- and 3-dimensional entries" at 1024-byte nodes (Section 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeParams {
    /// Maximum entries per node (`M`).
    pub max_entries: usize,
    /// Minimum entries per non-root node (`m`, R* recommends `0.4·M`).
    pub min_entries: usize,
    /// Entries removed by a forced reinsert (`p`, R* recommends `0.3·M`).
    pub reinsert_count: usize,
    /// Whether forced reinsertion is enabled (ablation switch).
    pub forced_reinsert: bool,
}

/// Node header bytes assumed by the capacity formula.
pub const NODE_HEADER_BYTES: usize = 16;

impl RTreeParams {
    /// Parameters for a node of `node_size` bytes holding `dims`-dimensional
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if the node cannot hold at least 4 entries (the error of
    /// [`RTreeParams::try_for_node_size`]).
    pub fn for_node_size(node_size: usize, dims: usize) -> Self {
        Self::try_for_node_size(node_size, dims).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`RTreeParams::for_node_size`], or an error naming the node size if
    /// the node cannot hold at least 4 entries.
    pub fn try_for_node_size(node_size: usize, dims: usize) -> Result<Self, String> {
        let entry_bytes = 2 * dims * 4 + 4;
        let max_entries = node_size.saturating_sub(NODE_HEADER_BYTES) / entry_bytes;
        if max_entries < 4 {
            return Err(format!("node size {node_size} too small for {dims}-D entries"));
        }
        Ok(Self::with_max_entries(max_entries))
    }

    /// Parameters from an explicit fanout (R* fill ratios applied).
    pub fn with_max_entries(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "max_entries must be at least 4");
        RTreeParams {
            max_entries,
            min_entries: (2 * max_entries / 5).max(2),
            reinsert_count: (3 * max_entries / 10).max(1),
            forced_reinsert: true,
        }
    }

    /// Disables forced reinsertion (for the ablation benchmark).
    pub fn without_reinsert(mut self) -> Self {
        self.forced_reinsert = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_capacities() {
        // Section 8: 1024-byte nodes hold 50 2-D or 36 3-D entries.
        assert_eq!(RTreeParams::for_node_size(1024, 2).max_entries, 50);
        assert_eq!(RTreeParams::for_node_size(1024, 3).max_entries, 36);
    }

    #[test]
    fn other_node_sizes() {
        assert_eq!(RTreeParams::for_node_size(512, 2).max_entries, 24);
        assert_eq!(RTreeParams::for_node_size(512, 3).max_entries, 17);
        assert_eq!(RTreeParams::for_node_size(8192, 2).max_entries, 408);
        assert_eq!(RTreeParams::for_node_size(8192, 3).max_entries, 292);
    }

    #[test]
    fn fill_ratios() {
        let p = RTreeParams::with_max_entries(50);
        assert_eq!(p.min_entries, 20);
        assert_eq!(p.reinsert_count, 15);
        assert!(p.forced_reinsert);
        assert!(!p.without_reinsert().forced_reinsert);
    }

    #[test]
    fn min_stays_below_half() {
        for m in 4..200 {
            let p = RTreeParams::with_max_entries(m);
            assert!(p.min_entries * 2 <= p.max_entries + 1, "m={m}");
            assert!(p.reinsert_count < p.max_entries, "m={m}");
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_node_rejected() {
        let _ = RTreeParams::for_node_size(64, 3);
    }

    #[test]
    fn try_for_node_size_agrees_with_the_panicking_form() {
        assert_eq!(
            RTreeParams::try_for_node_size(1024, 3),
            Ok(RTreeParams::for_node_size(1024, 3))
        );
        for size in [0, 15, 64] {
            let e = RTreeParams::try_for_node_size(size, 3).unwrap_err();
            assert!(e.contains(&format!("node size {size}")), "{e}");
        }
    }
}
