//! Binary record ("data unit") encodings shared by the generators and the
//! applications' `decode` implementations.
//!
//! Units are fixed-size little-endian records, so chunks split on unit
//! boundaries and any byte range that is a multiple of the unit size decodes
//! without framing metadata — the property the files → chunks → units
//! organization relies on.

use bytes::{BufMut, BytesMut};

/// An identified point: `id: u32` followed by `D` little-endian `f32`
/// coordinates. Used by k-NN (ids identify the neighbors found).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdPoint<const D: usize> {
    /// Record identifier.
    pub id: u32,
    /// Coordinates.
    pub coords: [f32; D],
}

impl<const D: usize> IdPoint<D> {
    /// Encoded size in bytes.
    pub const SIZE: usize = 4 + 4 * D;

    /// Append the record's encoding to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.id);
        for c in self.coords {
            buf.put_f32_le(c);
        }
    }

    /// Decode one record from exactly [`IdPoint::SIZE`] bytes.
    ///
    /// # Panics
    /// Panics when `bytes` is shorter than the record.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> IdPoint<D> {
        // One bounds check for the record, so the reads below compile to
        // whole-record loads.
        let record = &bytes[..Self::SIZE];
        let id = u32::from_le_bytes(record[0..4].try_into().expect("id bytes"));
        let coords = std::array::from_fn(|i| {
            let at = 4 + 4 * i;
            f32::from_le_bytes(record[at..at + 4].try_into().expect("coord bytes"))
        });
        IdPoint { id, coords }
    }
}

/// An anonymous point: `D` little-endian `f32` coordinates. Used by k-means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point<const D: usize>(pub [f32; D]);

impl<const D: usize> Point<D> {
    /// Encoded size in bytes.
    pub const SIZE: usize = 4 * D;

    /// Append the record's encoding to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        for c in self.0 {
            buf.put_f32_le(c);
        }
    }

    /// Decode one record from exactly [`Point::SIZE`] bytes.
    ///
    /// # Panics
    /// Panics when `bytes` is shorter than the record.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Point<D> {
        // One bounds check for the record: in the k-means fold a `Point<8>`
        // is then one 32-byte load.
        let record = &bytes[..Self::SIZE];
        Point(std::array::from_fn(|i| {
            f32::from_le_bytes(record[4 * i..4 * i + 4].try_into().expect("coord bytes"))
        }))
    }
}

/// A directed graph edge: `src: u32`, `dst: u32`. Used by PageRank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source page.
    pub src: u32,
    /// Destination page.
    pub dst: u32,
}

impl Edge {
    /// Encoded size in bytes.
    pub const SIZE: usize = 8;

    /// Append the record's encoding to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.src);
        buf.put_u32_le(self.dst);
    }

    /// Decode one record from exactly [`Edge::SIZE`] bytes.
    ///
    /// # Panics
    /// Panics when `bytes` is shorter than the record.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Edge {
        Edge {
            src: u32::from_le_bytes(bytes[0..4].try_into().expect("src bytes")),
            dst: u32::from_le_bytes(bytes[4..8].try_into().expect("dst bytes")),
        }
    }
}

/// A fixed-width ASCII token: up to 16 bytes, zero-padded. Used by
/// wordcount, where variable-length words are normalized into fixed units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Word(pub [u8; 16]);

impl Word {
    /// Encoded size in bytes.
    pub const SIZE: usize = 16;

    /// Build a word from a string, truncating to 16 bytes.
    #[must_use]
    pub fn from_str_lossy(s: &str) -> Word {
        let mut w = [0u8; 16];
        let bytes = s.as_bytes();
        let n = bytes.len().min(16);
        w[..n].copy_from_slice(&bytes[..n]);
        Word(w)
    }

    /// The word as a string (padding stripped).
    #[must_use]
    pub fn as_str(&self) -> &str {
        let end = self.0.iter().position(|&b| b == 0).unwrap_or(16);
        std::str::from_utf8(&self.0[..end]).unwrap_or("<non-utf8>")
    }

    /// Append the record's encoding to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.0);
    }

    /// Decode one record from exactly [`Word::SIZE`] bytes.
    ///
    /// # Panics
    /// Panics when `bytes` is shorter than the record.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Word {
        Word(bytes[..16].try_into().expect("word bytes"))
    }
}

/// Decode every fixed-size record in `chunk` with `decode_one`, appending to
/// `out`. `chunk.len()` must be a multiple of `size`.
pub fn decode_all<T>(chunk: &[u8], size: usize, out: &mut Vec<T>, decode_one: impl Fn(&[u8]) -> T) {
    debug_assert_eq!(chunk.len() % size, 0, "chunk not unit-aligned");
    // An exact-size iterator: one capacity check for the chunk, not one
    // per record.
    out.extend(chunk.chunks_exact(size).map(decode_one));
}

/// Hand `f`, in order and in blocks of up to 256, what `read` makes of
/// every `size`-byte unit encoded in `units`. A block is read onto the stack
/// before `f` sees it, so a walk that does random access with each unit (a
/// rank vector, a grid) reads its units in sequential bursts: one unit at a
/// time, the reads of a chunk the cache has since dropped wait behind those
/// random accesses. A tail shorter than a unit is not read, as
/// [`decode_all`] would not decode it.
pub fn for_each_block<T: Copy + Default>(
    units: &[u8],
    size: usize,
    read: impl Fn(&[u8]) -> T,
    mut f: impl FnMut(&[T]),
) {
    let mut block = [T::default(); STAGE];
    for staged in units.chunks(STAGE * size) {
        let n = staged.len() / size;
        for (slot, unit) in block.iter_mut().zip(staged.chunks_exact(size)) {
            *slot = read(unit);
        }
        f(&block[..n]);
    }
}

/// Units [`for_each_block`] reads ahead of what it does with them.
const STAGE: usize = 256;

/// Squared Euclidean distance between two same-dimension slices.
#[must_use]
pub fn dist2(a: &[f32], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - y;
            d * d
        })
        .sum()
}

/// Squared Euclidean distance between two `f32` slices.
#[must_use]
pub fn dist2_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idpoint_roundtrip() {
        let p = IdPoint::<3> { id: 42, coords: [1.5, -2.0, 0.25] };
        let mut buf = BytesMut::new();
        p.encode(&mut buf);
        assert_eq!(buf.len(), IdPoint::<3>::SIZE);
        assert_eq!(IdPoint::<3>::decode(&buf), p);
    }

    #[test]
    fn point_roundtrip() {
        let p = Point::<4>([0.0, 1.0, -1.0, 3.5]);
        let mut buf = BytesMut::new();
        p.encode(&mut buf);
        assert_eq!(buf.len(), 16);
        assert_eq!(Point::<4>::decode(&buf), p);
    }

    #[test]
    fn edge_roundtrip() {
        let e = Edge { src: 7, dst: 99 };
        let mut buf = BytesMut::new();
        e.encode(&mut buf);
        assert_eq!(buf.len(), 8);
        assert_eq!(Edge::decode(&buf), e);
    }

    #[test]
    fn word_roundtrip_and_truncation() {
        let w = Word::from_str_lossy("cloud");
        assert_eq!(w.as_str(), "cloud");
        let mut buf = BytesMut::new();
        w.encode(&mut buf);
        assert_eq!(Word::decode(&buf), w);
        let long = Word::from_str_lossy("a-very-long-word-indeed");
        assert_eq!(long.as_str().len(), 16);
    }

    #[test]
    fn decode_all_walks_every_record() {
        let mut buf = BytesMut::new();
        for i in 0..5u32 {
            Edge { src: i, dst: i * 2 }.encode(&mut buf);
        }
        let mut out = Vec::new();
        decode_all(&buf, Edge::SIZE, &mut out, Edge::decode);
        assert_eq!(out.len(), 5);
        assert_eq!(out[3], Edge { src: 3, dst: 6 });
    }

    #[test]
    fn distance_functions_agree() {
        let a = [1.0f32, 2.0];
        let b64 = [4.0f64, 6.0];
        let b32 = [4.0f32, 6.0];
        assert_eq!(dist2(&a, &b64), 25.0);
        assert_eq!(dist2_f32(&a, &b32), 25.0);
    }
}
