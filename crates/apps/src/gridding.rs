//! Spatial gridding — remote-sensing style aggregation (the paper's §I/§V
//! motivation cites MODIS satellite reprojection pipelines as the kind of
//! data-intensive workload hybrid clouds serve): bin geolocated samples
//! into a regular 2D grid, accumulating per-cell count and value sums.
//!
//! Resource profile: light compute (a couple of multiplies per sample) and
//! a **resolution-dependent** reduction object (`width × height × 16`
//! bytes) — between kmeans's kilobytes and pagerank's megabytes, making it
//! a useful fourth point for the overhead analysis.

use crate::units::{decode_all, for_each_block};
use bytes::{BufMut, BytesMut};
use cloudburst_core::{resident_zeros, Merge, Reduction, ReductionObject, Undo};
use cloudburst_mapreduce::MapReduceApp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One geolocated sample: `x, y ∈ [0, 1)` and a measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Horizontal coordinate in `[0, 1)`.
    pub x: f32,
    /// Vertical coordinate in `[0, 1)`.
    pub y: f32,
    /// The measurement.
    pub value: f32,
}

impl Sample {
    /// Encoded size in bytes.
    pub const SIZE: usize = 12;

    /// Append the record's encoding to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_f32_le(self.x);
        buf.put_f32_le(self.y);
        buf.put_f32_le(self.value);
    }

    /// Decode one record from exactly [`Sample::SIZE`] bytes.
    ///
    /// # Panics
    /// Panics when `bytes` is shorter than the record.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Sample {
        let f = |i: usize| f32::from_le_bytes(bytes[i..i + 4].try_into().expect("f32 bytes"));
        Sample { x: f(0), y: f(4), value: f(8) }
    }
}

/// The gridding reduction object: per-cell sample counts and value sums.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2D {
    width: usize,
    height: usize,
    /// Row-major per-cell sample counts.
    pub counts: Vec<u64>,
    /// Row-major per-cell value sums.
    pub sums: Vec<f64>,
}

impl Grid2D {
    /// An empty `width × height` grid, resident: a sample lands in any cell,
    /// so the first job's deposits take no page fault.
    ///
    /// # Panics
    /// Panics on zero dimensions.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Grid2D {
        assert!(width > 0 && height > 0, "grid needs positive dimensions");
        let cells = width * height;
        Grid2D { width, height, counts: resident_zeros(cells), sums: resident_zeros(cells) }
    }

    /// Grid width in cells.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in cells.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Row-major cell index for a sample (coordinates clamp to the edges).
    #[must_use]
    pub fn cell_of(&self, x: f32, y: f32) -> usize {
        cell_in(self.width, self.height, x, y)
    }

    /// Fold one sample into its cell.
    pub fn observe(&mut self, s: &Sample) {
        let c = self.cell_of(s.x, s.y);
        self.counts[c] += 1;
        self.sums[c] += f64::from(s.value);
    }

    /// Mean value per cell (`None` for empty cells).
    #[must_use]
    pub fn cell_mean(&self, cell: usize) -> Option<f64> {
        (self.counts[cell] > 0).then(|| self.sums[cell] / self.counts[cell] as f64)
    }

    /// Total samples observed.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl Merge for Grid2D {
    /// # Panics
    /// Panics when grid shapes differ.
    fn merge(&mut self, other: Self) {
        assert_eq!((self.width, self.height), (other.width, other.height), "grid shape mismatch");
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
        for (a, b) in self.sums.iter_mut().zip(other.sums) {
            *a += b;
        }
    }
}

impl ReductionObject for Grid2D {
    fn byte_size(&self) -> usize {
        16 + self.counts.len() * 16
    }
}

/// The gridding application.
#[derive(Debug, Clone, Copy)]
pub struct Gridding {
    /// Grid width in cells.
    pub width: usize,
    /// Grid height in cells.
    pub height: usize,
}

impl Gridding {
    /// A gridder with the given resolution.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Gridding {
        Gridding { width, height }
    }
}

impl Reduction for Gridding {
    type Item = Sample;
    type RObj = Grid2D;

    fn make_robj(&self) -> Grid2D {
        Grid2D::new(self.width, self.height)
    }

    fn unit_size(&self) -> usize {
        Sample::SIZE
    }

    fn decode(&self, chunk: &[u8], out: &mut Vec<Sample>) {
        decode_all(chunk, Sample::SIZE, out, Sample::decode);
    }

    fn local_reduce(&self, robj: &mut Grid2D, item: &Sample) {
        robj.observe(item);
    }

    /// Two journal notes per sample: its cell's count and sum.
    fn journal_len(&self, units: usize) -> usize {
        2 * units
    }

    /// `reduce_units` straight into the accumulator, the cell's old count
    /// and sum noted before each sample is folded in (slot `2·cell` the
    /// count, `2·cell + 1` the sum).
    fn reduce_open(
        &self,
        acc: &mut Grid2D,
        undo: &mut Undo<Grid2D>,
        units: &[u8],
        _: &mut Vec<Sample>,
    ) {
        let journal = &mut undo.journal;
        let read = |u: &[u8]| {
            let s = Sample::decode(u);
            (cell_in(self.width, self.height, s.x, s.y), s.value)
        };
        for_each_block(units, Sample::SIZE, read, |samples| {
            for &(c, value) in samples {
                journal.note(2 * c, acc.counts[c]);
                journal.note(2 * c + 1, acc.sums[c].to_bits());
                acc.counts[c] += 1;
                acc.sums[c] += f64::from(value);
            }
        });
    }

    fn accept(&self, _: &mut Grid2D, undo: &mut Undo<Grid2D>) {
        undo.journal.clear();
    }

    fn rollback(&self, acc: &mut Grid2D, undo: &mut Undo<Grid2D>) {
        undo.journal.undo(|slot, bits| match slot % 2 {
            0 => acc.counts[slot / 2] = bits,
            _ => acc.sums[slot / 2] = f64::from_bits(bits),
        });
    }
}

/// [`Grid2D::cell_of`] for a `width × height` grid.
fn cell_in(width: usize, height: usize, x: f32, y: f32) -> usize {
    let cx = ((f64::from(x) * width as f64) as isize).clamp(0, width as isize - 1);
    let cy = ((f64::from(y) * height as f64) as isize).clamp(0, height as isize - 1);
    cy as usize * width + cx as usize
}

/// MapReduce formulation: one `(cell, (count, sum))` pair per sample.
impl MapReduceApp for Gridding {
    type Item = Sample;
    type Key = u32;
    type Value = (u64, f64);

    fn unit_size(&self) -> usize {
        Sample::SIZE
    }

    fn decode(&self, chunk: &[u8], out: &mut Vec<Sample>) {
        decode_all(chunk, Sample::SIZE, out, Sample::decode);
    }

    fn map(&self, item: &Sample, emit: &mut dyn FnMut(u32, (u64, f64))) {
        let cell = cell_in(self.width, self.height, item.x, item.y);
        emit(cell as u32, (1, f64::from(item.value)));
    }

    fn reduce(&self, _key: &u32, values: Vec<(u64, f64)>) -> (u64, f64) {
        values.into_iter().fold((0, 0.0), |(c, s), (dc, ds)| (c + dc, s + ds))
    }

    fn combine(&self, key: &u32, values: Vec<(u64, f64)>) -> Vec<(u64, f64)> {
        vec![self.reduce(key, values)]
    }

    fn has_combiner(&self) -> bool {
        true
    }
}

/// Synthetic sensor swath: samples cluster around `hotspots` warm regions
/// on a cool background (a caricature of a surface-temperature product).
#[must_use]
pub fn gen_samples(n: u32, hotspots: u32, seed: u64) -> bytes::Bytes {
    assert!(hotspots > 0, "need at least one hotspot");
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<(f32, f32)> = (0..hotspots).map(|_| (rng.gen(), rng.gen())).collect();
    let mut buf = BytesMut::with_capacity(n as usize * Sample::SIZE);
    for i in 0..n {
        let (x, y, v) = if i % 4 == 0 {
            // A quarter of the samples come from hotspots.
            let (cx, cy) = centers[(i / 4) as usize % centers.len()];
            let dx = (rng.gen::<f32>() - 0.5) * 0.1;
            let dy = (rng.gen::<f32>() - 0.5) * 0.1;
            (
                (cx + dx).clamp(0.0, 0.999),
                (cy + dy).clamp(0.0, 0.999),
                30.0 + rng.gen::<f32>() * 5.0,
            )
        } else {
            (rng.gen(), rng.gen(), 10.0 + rng.gen::<f32>() * 5.0)
        };
        Sample { x, y, value: v }.encode(&mut buf);
    }
    buf.freeze()
}

/// Serial oracle.
#[must_use]
pub fn gridding_oracle(data: &[u8], width: usize, height: usize) -> Grid2D {
    let mut samples = Vec::new();
    decode_all(data, Sample::SIZE, &mut samples, Sample::decode);
    let mut grid = Grid2D::new(width, height);
    for s in &samples {
        grid.observe(s);
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_core::reduce_serial;

    #[test]
    fn sample_roundtrip() {
        let s = Sample { x: 0.25, y: 0.75, value: -3.5 };
        let mut buf = BytesMut::new();
        s.encode(&mut buf);
        assert_eq!(buf.len(), Sample::SIZE);
        assert_eq!(Sample::decode(&buf), s);
    }

    #[test]
    fn cells_cover_the_unit_square() {
        let g = Grid2D::new(4, 3);
        assert_eq!(g.cell_of(0.0, 0.0), 0);
        assert_eq!(g.cell_of(0.999, 0.0), 3);
        assert_eq!(g.cell_of(0.0, 0.999), 8);
        assert_eq!(g.cell_of(0.999, 0.999), 11);
        // Out-of-range clamps rather than panics.
        assert_eq!(g.cell_of(-1.0, 2.0), 8);
    }

    #[test]
    fn genred_matches_oracle() {
        let data = gen_samples(5_000, 3, 7);
        let app = Gridding::new(16, 16);
        let robj = reduce_serial(&app, [data.as_ref()]);
        assert_eq!(robj, gridding_oracle(&data, 16, 16));
        assert_eq!(robj.total_samples(), 5_000);
    }

    #[test]
    fn merge_of_partitions_matches_whole() {
        let data = gen_samples(2_000, 2, 9);
        let app = Gridding::new(8, 8);
        let cut = (data.len() / 2) - (data.len() / 2) % Sample::SIZE;
        let mut a = reduce_serial(&app, [&data[..cut]]);
        let b = reduce_serial(&app, [&data[cut..]]);
        a.merge(b);
        let whole = gridding_oracle(&data, 8, 8);
        assert_eq!(a.counts, whole.counts);
        for (x, y) in a.sums.iter().zip(&whole.sums) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn hotspot_cells_run_warmer() {
        let data = gen_samples(40_000, 1, 11);
        let grid = gridding_oracle(&data, 10, 10);
        // The warmest cell mean should be far above the background (~12.5).
        let best = (0..100).filter_map(|c| grid.cell_mean(c)).fold(f64::MIN, f64::max);
        assert!(best > 20.0, "hotspot mean {best}");
    }

    #[test]
    fn robj_size_scales_with_resolution() {
        let small = Grid2D::new(8, 8);
        let big = Grid2D::new(256, 256);
        assert!(big.byte_size() > 1_000 * small.byte_size() / 2);
        assert_eq!(big.byte_size(), 16 + 256 * 256 * 16);
    }

    #[test]
    fn mapreduce_matches_genred() {
        use cloudburst_mapreduce::{run_mapreduce, EngineConfig};
        let data = gen_samples(3_000, 2, 13);
        let app = Gridding::new(6, 6);
        let chunks: Vec<&[u8]> = data.chunks(100 * Sample::SIZE).collect();
        let (res, _) = run_mapreduce(&app, &chunks, EngineConfig::default());
        let oracle = gridding_oracle(&data, 6, 6);
        for (cell, (count, sum)) in res {
            assert_eq!(count, oracle.counts[cell as usize]);
            assert!((sum - oracle.sums[cell as usize]).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn merging_different_resolutions_panics() {
        Grid2D::new(2, 2).merge(Grid2D::new(3, 3));
    }
}
