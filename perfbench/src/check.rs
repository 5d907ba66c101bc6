//! Answer checking: a seeded sample of every phase's answers is compared
//! bit for bit with `ScanBaseline::query` on the same data, after the timed
//! phase and off the clock.

use knnta_core::{KnntaQuery, QueryHit, ScanBaseline};

/// Keeps the answers of one query in `stride`, starting at 1-in-64. A long
/// phase would make the oracle (a full scan per answer) the longest part
/// of the run, so once `cap` answers are held the stride doubles and every
/// other kept answer is let go: the sample stays evenly spread over the
/// phase and is a pure function of the seed and the phase's length.
pub struct Sampler<T> {
    stride: usize,
    offset: usize,
    cap: usize,
    kept: Vec<(usize, T)>,
}

impl<T> Sampler<T> {
    pub fn new(seed: u64, cap: usize) -> Sampler<T> {
        Sampler {
            stride: 64,
            offset: (seed % 64) as usize,
            cap: cap.max(1),
            kept: Vec::new(),
        }
    }

    /// Keeps every answer (`engine_single` on `--quick`, unit tests).
    pub fn all() -> Sampler<T> {
        Sampler {
            stride: 1,
            offset: 0,
            cap: usize::MAX,
            kept: Vec::new(),
        }
    }

    /// Whether operation `i` of the phase is in the sample.
    pub fn wants(&self, i: usize) -> bool {
        (i + self.offset).is_multiple_of(self.stride)
    }

    pub fn keep(&mut self, i: usize, answer: T) {
        self.kept.push((i, answer));
        if self.kept.len() > self.cap {
            self.stride *= 2;
            let (stride, offset) = (self.stride, self.offset);
            self.kept
                .retain(|(i, _)| (i + offset).is_multiple_of(stride));
        }
    }

    pub fn into_kept(self) -> Vec<(usize, T)> {
        self.kept
    }
}

/// Bit-for-bit equality of two ranked answers: the same POIs in the same
/// order with the same score, score parts and aggregate. The raw
/// `distance` is left out — the scan derives it from the normalised one and
/// differs from the tree's in the last bit; it plays no part in the ranking.
pub fn same_answer(a: &[QueryHit], b: &[QueryHit]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.poi == y.poi
                && x.score.to_bits() == y.score.to_bits()
                && x.s0.to_bits() == y.s0.to_bits()
                && x.s1.to_bits() == y.s1.to_bits()
                && x.aggregate == y.aggregate
        })
}

/// Number of `answers` (query, hits) that differ from the oracle's.
pub fn mismatches<'a>(
    oracle: &ScanBaseline,
    answers: impl IntoIterator<Item = (&'a KnntaQuery, &'a [QueryHit])>,
) -> u64 {
    answers
        .into_iter()
        .filter(|(q, hits)| !same_answer(&oracle.query(q), hits))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_thins_evenly_once_over_its_cap() {
        let mut s: Sampler<()> = Sampler::new(3, 4);
        for i in 0..64 * 20 {
            if s.wants(i) {
                s.keep(i, ());
            }
        }
        let kept: Vec<usize> = s.into_kept().into_iter().map(|(i, _)| i).collect();
        assert!(kept.len() <= 4 && kept.len() >= 2, "{kept:?}");
        let gaps: Vec<usize> = kept.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.windows(2).all(|w| w[0] == w[1]),
            "even spread: {kept:?}"
        );
        // Same seed and length, same sample.
        let mut t: Sampler<()> = Sampler::new(3, 4);
        for i in 0..64 * 20 {
            if t.wants(i) {
                t.keep(i, ());
            }
        }
        assert_eq!(
            kept,
            t.into_kept()
                .into_iter()
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        );
    }
}
