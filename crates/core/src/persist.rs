//! Index persistence: a compact binary snapshot of a [`TarIndex`].
//!
//! The snapshot is *logical*: configuration, epoch grid, bounds, and every
//! `(POI, aggregate series)` pair. Loading rebuilds the tree with STR bulk
//! packing ([`TarIndex::build_bulk`]), so a loaded index answers every query
//! identically to the saved one (ranking is structure-independent), loads in
//! one pass, and is typically better packed than the original. The format
//! is versioned and self-describing; serialisation uses the in-repo
//! [`knnta_util::codec`] little-endian codec — no external crate is needed.

use crate::index::{Grouping, IndexConfig, TarIndex};
use crate::poi::Poi;
use knnta_util::codec::{Bytes, BytesMut};
use rtree::{RTreeParams, Rect};
use std::collections::HashSet;
use std::io::{self, Read, Write};
use tempora::{AggregateSeries, EpochGrid, Timestamp};

const MAGIC: &[u8; 8] = b"KNNTAv1\0";

/// Fewest bytes one POI record takes: id, position, series length.
const MIN_POI_RECORD_BYTES: usize = 4 + 16 + 4;

/// A snapshot's POI ids stay below `POI_ID_SPREAD` × its POI count, or
/// below `POI_ID_FLOOR` so small files with sparse ids still load: an index
/// keeps one position slot per id up to the largest, so ids bound memory.
const POI_ID_SPREAD: usize = 64;
const POI_ID_FLOOR: usize = 1 << 16;

impl TarIndex {
    /// The exclusive upper bound on POI ids a snapshot of `poi_count` POIs
    /// may use: `max(64 × poi_count, 65 536)`. An index sizes its position
    /// table by the largest id, so this bounds the memory a loaded file can
    /// claim to a constant multiple of its POI count.
    pub fn poi_id_limit(poi_count: usize) -> usize {
        poi_count.saturating_mul(POI_ID_SPREAD).max(POI_ID_FLOOR)
    }

    /// Serialises the index into a byte buffer.
    pub fn save_to_vec(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u8(match self.grouping() {
            Grouping::TarIntegral => 0,
            Grouping::IndSpa => 1,
            Grouping::IndAgg => 2,
        });
        buf.put_u32(self.config_node_size() as u32);
        buf.put_u8(self.config_forced_reinsert() as u8);
        // Grid as its boundary list (handles varied-length epochs).
        let grid = self.grid();
        buf.put_u32(grid.len() as u32 + 1);
        buf.put_i64(grid.t0().seconds());
        for epoch in grid.iter() {
            buf.put_i64(epoch.end.seconds());
        }
        let b = self.bounds();
        for v in [b.min[0], b.min[1], b.max[0], b.max[1]] {
            buf.put_f64(v);
        }
        // POIs with their series.
        let items = self.export_pois();
        buf.put_u32(items.len() as u32);
        for (poi, series) in &items {
            buf.put_u32(poi.id.0);
            buf.put_f64(poi.pos[0]);
            buf.put_f64(poi.pos[1]);
            buf.put_u32(series.len() as u32);
            for (e, v) in series.iter() {
                buf.put_u32(e);
                buf.put_u64(v);
            }
        }
        buf.to_vec()
    }

    /// Writes the snapshot to any writer (e.g. a file).
    pub fn save_to(&self, mut writer: impl Write) -> io::Result<()> {
        writer.write_all(&self.save_to_vec())
    }

    /// Restores an index from a snapshot produced by
    /// [`TarIndex::save_to_vec`]. The tree is rebuilt with STR bulk packing;
    /// query answers are identical to the saved index's.
    ///
    /// A malformed snapshot (truncated, a node size too small for the
    /// grouping, non-finite or inverted bounds, a POI count larger than the
    /// bytes that follow, a duplicate POI id or one at or past
    /// [`TarIndex::poi_id_limit`], a non-finite position, series epochs not
    /// increasing or outside the grid, per-epoch maxima over all POIs that
    /// sum past `u64::MAX`) is an [`io::ErrorKind::InvalidData`]
    /// error naming the field, never a panic.
    pub fn load_from_slice(data: &[u8]) -> io::Result<TarIndex> {
        let err = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut buf = Bytes::copy_from_slice(data);
        let need = |n: usize, buf: &Bytes| {
            if buf.len() < n {
                Err(err("truncated snapshot"))
            } else {
                Ok(())
            }
        };
        need(MAGIC.len(), &buf)?;
        let magic = buf.split_to(MAGIC.len());
        if magic.as_ref() != MAGIC {
            return Err(err("not a knnta snapshot (bad magic)"));
        }
        need(6, &buf)?;
        let grouping = match buf.get_u8() {
            0 => Grouping::TarIntegral,
            1 => Grouping::IndSpa,
            2 => Grouping::IndAgg,
            _ => return Err(err("unknown grouping")),
        };
        let node_size = buf.get_u32() as usize;
        RTreeParams::try_for_node_size(node_size, grouping.dims())
            .map_err(|e| err(&e))?;
        let forced_reinsert = buf.get_u8() != 0;
        need(4, &buf)?;
        let boundary_count = buf.get_u32() as usize;
        if boundary_count < 2 {
            return Err(err("grid needs at least two boundaries"));
        }
        need(boundary_count * 8, &buf)?;
        let boundaries: Vec<Timestamp> = (0..boundary_count)
            .map(|_| Timestamp(buf.get_i64()))
            .collect();
        if !boundaries.windows(2).all(|w| w[0] < w[1]) {
            return Err(err("grid boundaries not increasing"));
        }
        let grid = EpochGrid::varied(boundaries);
        need(32, &buf)?;
        let (min, max) = (
            [buf.get_f64(), buf.get_f64()],
            [buf.get_f64(), buf.get_f64()],
        );
        let finite = min.iter().chain(&max).all(|v| v.is_finite());
        if !finite || min[0] > max[0] || min[1] > max[1] {
            return Err(err(&format!("bad bounds: {min:?} .. {max:?}")));
        }
        let bounds = Rect::new(min, max);
        need(4, &buf)?;
        let n = buf.get_u32() as usize;
        if n > buf.len() / MIN_POI_RECORD_BYTES {
            return Err(err(&format!(
                "bad poi count: {n} records need at least {} bytes, {} left",
                n * MIN_POI_RECORD_BYTES,
                buf.len()
            )));
        }
        let id_limit = Self::poi_id_limit(n);
        let mut items = Vec::with_capacity(n);
        let mut ids = HashSet::with_capacity(n);
        for _ in 0..n {
            need(MIN_POI_RECORD_BYTES, &buf)?;
            let id = buf.get_u32();
            if id as usize >= id_limit {
                return Err(err(&format!(
                    "bad poi id: {id} is not below {id_limit}, the limit for {n} POIs"
                )));
            }
            if !ids.insert(id) {
                return Err(err(&format!("bad poi id: duplicate id {id}")));
            }
            let pos = [buf.get_f64(), buf.get_f64()];
            if !pos.iter().all(|v| v.is_finite()) {
                return Err(err(&format!("bad poi position: {pos:?} for id {id}")));
            }
            let pairs = buf.get_u32() as usize;
            need(pairs * 12, &buf)?;
            let pairs: Vec<(u32, u64)> =
                (0..pairs).map(|_| (buf.get_u32(), buf.get_u64())).collect();
            let in_grid = pairs.last().is_none_or(|&(e, _)| (e as usize) < grid.len());
            if !in_grid || !pairs.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(err(&format!(
                    "bad series epoch: poi {id} needs increasing epochs below {}",
                    grid.len()
                )));
            }
            let series = AggregateSeries::from_pairs(pairs);
            items.push((Poi { id: tempora::PoiId(id), pos }, series));
        }
        // Every TIA prefix the index sums, leaf or internal, is at most
        // the total of the per-epoch maxima.
        if AggregateSeries::max_of(items.iter().map(|(_, s)| s))
            .checked_total()
            .is_none()
        {
            return Err(err(
                "bad series total: the per-epoch maxima over all POIs sum past u64::MAX",
            ));
        }
        let config = IndexConfig {
            grouping,
            node_size,
            forced_reinsert,
        };
        Ok(TarIndex::build_bulk(config, grid, bounds, items))
    }

    /// Reads a snapshot from any reader.
    pub fn load_from(mut reader: impl Read) -> io::Result<TarIndex> {
        let mut data = Vec::new();
        reader.read_to_end(&mut data)?;
        Self::load_from_slice(&data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::paper_example;
    use crate::KnntaQuery;
    use tempora::TimeInterval;

    fn example(grouping: Grouping) -> TarIndex {
        let (grid, bounds, pois) = paper_example();
        TarIndex::build(IndexConfig::with_grouping(grouping), grid, bounds, pois)
    }

    #[test]
    fn roundtrip_preserves_answers() {
        for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
            let index = example(grouping);
            let bytes = index.save_to_vec();
            let loaded = TarIndex::load_from_slice(&bytes).expect("valid snapshot");
            assert_eq!(loaded.len(), index.len());
            assert_eq!(loaded.grouping(), grouping);
            for alpha0 in [0.2, 0.5, 0.8] {
                let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
                    .with_k(5)
                    .with_alpha0(alpha0);
                let a = index.query(&q);
                let b = loaded.query(&q);
                assert_eq!(
                    a.iter().map(|h| (h.poi, h.aggregate)).collect::<Vec<_>>(),
                    b.iter().map(|h| (h.poi, h.aggregate)).collect::<Vec<_>>(),
                    "{grouping} α0={alpha0}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_through_io() {
        let index = example(Grouping::TarIntegral);
        let mut file = Vec::new();
        index.save_to(&mut file).unwrap();
        let loaded = TarIndex::load_from(file.as_slice()).unwrap();
        assert_eq!(loaded.len(), index.len());
        // The loaded index stays fully functional (updates, MWA, batch).
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3)).with_k(3);
        let (_, adj) = loaded.mwa_pruning(&q);
        let _ = adj.nearest(q.alpha0);
        let _ = crate::Executor::new(&loaded).query_batch(&[q]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(TarIndex::load_from_slice(b"").is_err());
        assert!(TarIndex::load_from_slice(b"not a snapshot").is_err());
        let mut bytes = example(Grouping::IndSpa).save_to_vec();
        bytes[0] = b'X';
        assert!(TarIndex::load_from_slice(&bytes).is_err());
        // Truncation anywhere must error, not panic.
        let full = example(Grouping::IndSpa).save_to_vec();
        for cut in [9, 20, 40, full.len() - 3] {
            assert!(
                TarIndex::load_from_slice(&full[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // Forged fields must error too, naming the field: a node size the
        // tree cannot use, a POI count no file this long can hold (the
        // file cut right after it), and a POI id given twice.
        let invalid = |bytes: &[u8], field: &str| {
            let Err(e) = TarIndex::load_from_slice(bytes) else {
                panic!("forged {field} loaded");
            };
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{field}");
            assert!(e.to_string().contains(field), "{field}: {e}");
        };
        let mut bytes = full.clone();
        bytes[9..13].copy_from_slice(&0u32.to_le_bytes());
        invalid(&bytes, "node size");
        let count_at = poi_count_offset(&full);
        let mut bytes = full[..count_at + 4].to_vec();
        bytes[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        invalid(&bytes, "poi count");
        let mut bytes = full.clone();
        let first = count_at + 4;
        let pairs = u32::from_le_bytes(bytes[first + 20..first + 24].try_into().unwrap());
        let second = first + 24 + 12 * pairs as usize;
        bytes.copy_within(first..first + 4, second);
        invalid(&bytes, "poi id");
        // An id far past the POI count (the index would size its position
        // table by it), a non-finite position, non-finite bounds, and a
        // series epoch one past the grid.
        let mut bytes = full.clone();
        bytes[first..first + 4].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
        invalid(&bytes, "poi id");
        let mut bytes = full.clone();
        bytes[first + 4..first + 12].copy_from_slice(&f64::NAN.to_le_bytes());
        invalid(&bytes, "poi position");
        let mut bytes = full.clone();
        bytes[count_at - 32..count_at - 24].copy_from_slice(&f64::NEG_INFINITY.to_le_bytes());
        invalid(&bytes, "bounds");
        let mut bytes = full.clone();
        let grid_len = u32::from_le_bytes(full[14..18].try_into().unwrap()) - 1;
        let at = last_epoch_offset(&full);
        bytes[at..at + 4].copy_from_slice(&grid_len.to_le_bytes());
        invalid(&bytes, "series epoch");
        // A two-epoch series of 2^63 each: the index's prefix sums would
        // overflow.
        let mut bytes = full.clone();
        let at = two_epoch_series_offset(&full);
        for value_at in [at + 4, at + 16] {
            bytes[value_at..value_at + 8].copy_from_slice(&(1u64 << 63).to_le_bytes());
        }
        invalid(&bytes, "bad series total");
    }

    /// Byte offset of the first series pair of the first POI with at least
    /// two.
    fn two_epoch_series_offset(snapshot: &[u8]) -> usize {
        let read = |at: usize| u32::from_le_bytes(snapshot[at..at + 4].try_into().unwrap());
        let mut at = poi_count_offset(snapshot) + 4;
        loop {
            let pairs = read(at + 20) as usize;
            if pairs >= 2 {
                return at + 24;
            }
            at += 24 + 12 * pairs;
        }
    }

    /// Byte offset of the last series epoch of the first POI that has one.
    fn last_epoch_offset(snapshot: &[u8]) -> usize {
        let read = |at: usize| u32::from_le_bytes(snapshot[at..at + 4].try_into().unwrap());
        let mut at = poi_count_offset(snapshot) + 4;
        loop {
            let pairs = read(at + 20) as usize;
            if pairs > 0 {
                return at + 24 + 12 * (pairs - 1);
            }
            at += 24;
        }
    }

    /// Byte offset of the POI count in a snapshot: magic, grouping, node
    /// size, reinsert flag, grid boundaries, bounds.
    fn poi_count_offset(snapshot: &[u8]) -> usize {
        let boundaries = u32::from_le_bytes(snapshot[14..18].try_into().unwrap()) as usize;
        18 + 8 * boundaries + 32
    }

    #[test]
    fn varied_grid_roundtrip() {
        let grid = EpochGrid::exponential(3600, 6);
        let bounds = Rect::new([0.0, 0.0], [10.0, 10.0]);
        let pois = vec![(
            Poi::new(0, 5.0, 5.0),
            AggregateSeries::from_pairs([(0u32, 3), (5, 9)]),
        )];
        let index = TarIndex::build(IndexConfig::default(), grid.clone(), bounds, pois);
        let loaded = TarIndex::load_from_slice(&index.save_to_vec()).unwrap();
        assert_eq!(loaded.grid(), &grid);
    }
}
