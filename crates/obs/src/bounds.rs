//! Shared default bucket-bound tables.
//!
//! Every fixed-bucket histogram in the stack picks its inclusive upper
//! bounds from this module so the fetch-latency path (`crates/core`), the
//! sliding-window serving telemetry (`crates/service`), and the planner's
//! calibration-ratio window all agree on one vocabulary — and so a bound
//! tweak lands everywhere at once instead of drifting per call site.
//!
//! All tables are strictly ascending (asserted by
//! [`Registry::histogram`](crate::Registry::histogram)) and leave the
//! `> last` range to the implicit overflow bucket.

/// Page-fetch latency bounds in nanoseconds (250ns .. 1ms). Used by the
/// paged node backend's `knnta.core.storage.paged.fetch_ns` histogram.
pub const FETCH_NS: &[u64] = &[
    250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 1_000_000,
];

/// End-to-end / per-segment serving latency bounds in microseconds
/// (50µs .. 10s). Wide enough that a saturated open-loop run still lands
/// in real buckets rather than overflow.
pub const LATENCY_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 10_000_000,
];

/// Measured/estimated cost-model ratio bounds, scaled ×1000 (so `1000`
/// is a perfect estimate). Geometric ladder covering the planner's
/// calibration clamp range of 1/32× .. 32×.
pub const RATIO_X1000: &[u64] = &[
    31, 62, 125, 250, 500, 1_000, 2_000, 4_000, 8_000, 16_000, 32_000,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_strictly_ascending() {
        for table in [FETCH_NS, LATENCY_US, RATIO_X1000] {
            assert!(table.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
