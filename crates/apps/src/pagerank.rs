//! PageRank — "low to medium computation leading to high I/O, and a very
//! large reduction object" (paper §IV-A).
//!
//! One framework run performs one power iteration over the edge list: each
//! edge deposits `rank[src] / outdeg[src]` onto `dst`. The reduction object
//! is the **dense rank-mass vector** — 8 bytes per page (the paper's ~3 MB
//! robj), which is what makes PageRank's global reduction expensive across
//! the WAN and limits its scalability (§IV-C).

use crate::units::{decode_all, for_each_block, Edge};
use cloudburst_core::{resident_zeros, Merge, Reduction, ReductionObject, Undo};
use cloudburst_mapreduce::MapReduceApp;
use std::sync::Arc;

/// The PageRank reduction object: accumulated rank mass per page.
#[derive(Debug, Clone, PartialEq)]
pub struct RankMass(pub Vec<f64>);

impl Merge for RankMass {
    /// # Panics
    /// Panics when page counts differ.
    fn merge(&mut self, other: Self) {
        assert_eq!(self.0.len(), other.0.len(), "rank vector length mismatch");
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

impl ReductionObject for RankMass {
    fn byte_size(&self) -> usize {
        self.0.len() * 8
    }
}

/// One PageRank power iteration over an edge list.
///
/// The immutable per-iteration state (`contrib[p] = rank[p] / outdeg[p]`) is
/// shared read-only across all workers via `Arc`.
#[derive(Debug, Clone)]
pub struct PageRank {
    n_pages: usize,
    damping: f64,
    contrib: Arc<Vec<f64>>,
    dangling_mass: f64,
}

impl PageRank {
    /// An iteration with `ranks` as the current rank vector and `outdeg` the
    /// out-degree of every page.
    ///
    /// # Panics
    /// Panics when lengths differ, pages == 0, or damping is outside (0, 1).
    #[must_use]
    pub fn new(ranks: &[f64], outdeg: &[u32], damping: f64) -> PageRank {
        assert_eq!(ranks.len(), outdeg.len(), "ranks/outdeg length mismatch");
        assert!(!ranks.is_empty(), "graph has no pages");
        assert!((0.0..1.0).contains(&damping) && damping > 0.0, "damping must be in (0, 1)");
        let mut dangling_mass = 0.0;
        let contrib: Vec<f64> = ranks
            .iter()
            .zip(outdeg)
            .map(|(&r, &d)| {
                if d == 0 {
                    dangling_mass += r;
                    0.0
                } else {
                    r / f64::from(d)
                }
            })
            .collect();
        PageRank { n_pages: ranks.len(), damping, contrib: Arc::new(contrib), dangling_mass }
    }

    /// Number of pages.
    #[must_use]
    pub fn n_pages(&self) -> usize {
        self.n_pages
    }

    /// Turn accumulated mass into the next rank vector:
    /// `(1 - d)/N + d * (mass + dangling/N)`.
    #[must_use]
    pub fn next_ranks(&self, mass: &RankMass) -> Vec<f64> {
        let n = self.n_pages as f64;
        mass.0
            .iter()
            .map(|&m| (1.0 - self.damping) / n + self.damping * (m + self.dangling_mass / n))
            .collect()
    }

    /// Count out-degrees from an encoded edge list.
    #[must_use]
    pub fn outdegrees(data: &[u8], n_pages: usize) -> Vec<u32> {
        let mut edges = Vec::new();
        decode_all(data, Edge::SIZE, &mut edges, Edge::decode);
        let mut deg = vec![0u32; n_pages];
        for e in &edges {
            deg[e.src as usize] += 1;
        }
        deg
    }
}

impl Reduction for PageRank {
    type Item = Edge;
    type RObj = RankMass;

    /// Resident: the first job's random deposits take no page fault.
    fn make_robj(&self) -> RankMass {
        RankMass(resident_zeros(self.n_pages))
    }

    fn unit_size(&self) -> usize {
        Edge::SIZE
    }

    fn decode(&self, chunk: &[u8], out: &mut Vec<Edge>) {
        decode_all(chunk, Edge::SIZE, out, Edge::decode);
    }

    fn local_reduce(&self, robj: &mut RankMass, item: &Edge) {
        robj.0[item.dst as usize] += self.contrib[item.src as usize];
    }

    /// Each edge read where it lies in the chunk, in order: the
    /// `local_reduce` fold with no decode pass.
    fn reduce_units(&self, robj: &mut RankMass, units: &[u8], _: &mut Vec<Edge>) {
        debug_assert_eq!(units.len() % Edge::SIZE, 0, "chunk not unit-aligned");
        for_each_block(units, Edge::SIZE, Edge::decode, |edges| {
            edges.iter().for_each(|e| self.local_reduce(robj, e));
        });
    }

    /// One journal note per edge.
    fn journal_len(&self, units: usize) -> usize {
        units
    }

    /// `reduce_units` straight into the accumulator: the same additions in
    /// the same order as the fold with nothing open, each rank's bits noted
    /// as it is read for its deposit. A block's notes go into the journal in
    /// one `extend`, which checks its room once, not once per edge.
    fn reduce_open(
        &self,
        acc: &mut RankMass,
        undo: &mut Undo<RankMass>,
        units: &[u8],
        _: &mut Vec<Edge>,
    ) {
        debug_assert_eq!(units.len() % Edge::SIZE, 0, "chunk not unit-aligned");
        let journal = &mut undo.journal;
        for_each_block(units, Edge::SIZE, Edge::decode, |edges| {
            journal.extend(edges.iter().map(|e| {
                let rank = &mut acc.0[e.dst as usize];
                let old = rank.to_bits();
                *rank += self.contrib[e.src as usize];
                (e.dst as usize, old)
            }));
        });
    }

    fn accept(&self, _: &mut RankMass, undo: &mut Undo<RankMass>) {
        undo.journal.clear();
    }

    fn rollback(&self, acc: &mut RankMass, undo: &mut Undo<RankMass>) {
        undo.journal.undo(|dst, bits| acc.0[dst] = f64::from_bits(bits));
    }
}

/// The MapReduce formulation: each edge emits `(dst, contribution)`; the
/// shuffle carries one pair per edge (a huge intermediate set — the paper's
/// §III-A point), combined/reduced by addition.
impl MapReduceApp for PageRank {
    type Item = Edge;
    type Key = u32;
    type Value = f64;

    fn unit_size(&self) -> usize {
        Edge::SIZE
    }

    fn decode(&self, chunk: &[u8], out: &mut Vec<Edge>) {
        decode_all(chunk, Edge::SIZE, out, Edge::decode);
    }

    fn map(&self, item: &Edge, emit: &mut dyn FnMut(u32, f64)) {
        emit(item.dst, self.contrib[item.src as usize]);
    }

    fn reduce(&self, _key: &u32, values: Vec<f64>) -> f64 {
        values.into_iter().sum()
    }

    fn combine(&self, _key: &u32, values: Vec<f64>) -> Vec<f64> {
        vec![values.into_iter().sum()]
    }

    fn has_combiner(&self) -> bool {
        true
    }
}

/// Serial oracle: run `iterations` full power iterations and return the
/// final rank vector.
#[must_use]
pub fn pagerank_oracle(data: &[u8], n_pages: usize, damping: f64, iterations: usize) -> Vec<f64> {
    let outdeg = PageRank::outdegrees(data, n_pages);
    let mut edges = Vec::new();
    decode_all(data, Edge::SIZE, &mut edges, Edge::decode);
    let mut ranks = vec![1.0 / n_pages as f64; n_pages];
    for _ in 0..iterations {
        let app = PageRank::new(&ranks, &outdeg, damping);
        let mut mass = Reduction::make_robj(&app);
        for e in &edges {
            Reduction::local_reduce(&app, &mut mass, e);
        }
        ranks = app.next_ranks(&mass);
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_edges;
    use cloudburst_core::reduce_serial;

    fn tiny_graph() -> Vec<u8> {
        // 0 -> 1, 1 -> 2, 2 -> 0 (a cycle: uniform stationary ranks).
        let mut buf = bytes::BytesMut::new();
        for (s, d) in [(0u32, 1u32), (1, 2), (2, 0)] {
            Edge { src: s, dst: d }.encode(&mut buf);
        }
        buf.to_vec()
    }

    #[test]
    fn cycle_graph_has_uniform_ranks() {
        let ranks = pagerank_oracle(&tiny_graph(), 3, 0.85, 50);
        for r in &ranks {
            assert!((r - 1.0 / 3.0).abs() < 1e-9, "rank {r}");
        }
    }

    #[test]
    fn ranks_always_sum_to_one() {
        let data = gen_edges(100, 600, 3);
        let ranks = pagerank_oracle(&data, 100, 0.85, 15);
        let total: f64 = ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "rank mass {total}");
    }

    #[test]
    fn hubs_earn_more_rank() {
        let data = gen_edges(100, 5000, 7);
        let ranks = pagerank_oracle(&data, 100, 0.85, 20);
        let low: f64 = ranks[..25].iter().sum();
        assert!(low > 0.4, "hub pages should concentrate rank, got {low}");
    }

    #[test]
    fn genred_one_iteration_matches_oracle() {
        let data = gen_edges(50, 300, 9);
        let outdeg = PageRank::outdegrees(&data, 50);
        let ranks = vec![1.0 / 50.0; 50];
        let app = PageRank::new(&ranks, &outdeg, 0.85);
        let mass = reduce_serial(&app, [data.as_ref()]);
        let next = app.next_ranks(&mass);
        assert_eq!(next, pagerank_oracle(&data, 50, 0.85, 1));
    }

    #[test]
    fn merge_of_edge_partitions_matches_whole() {
        let data = gen_edges(40, 400, 11);
        let outdeg = PageRank::outdegrees(&data, 40);
        let ranks = vec![1.0 / 40.0; 40];
        let app = PageRank::new(&ranks, &outdeg, 0.85);
        let whole = reduce_serial(&app, [data.as_ref()]);
        let cut = (data.len() / 2) - (data.len() / 2) % Edge::SIZE;
        let mut a = reduce_serial(&app, [&data[..cut]]);
        let b = reduce_serial(&app, [&data[cut..]]);
        a.merge(b);
        // Summation order differs between the two schedules, so compare up
        // to floating-point reassociation error.
        for (x, y) in a.0.iter().zip(&whole.0) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn dangling_pages_redistribute_mass() {
        // 0 -> 1, 1 has no out-edges.
        let mut buf = bytes::BytesMut::new();
        Edge { src: 0, dst: 1 }.encode(&mut buf);
        let ranks = pagerank_oracle(&buf, 2, 0.85, 30);
        assert!((ranks.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(ranks[1] > ranks[0], "page 1 receives page 0's rank");
    }

    #[test]
    fn robj_is_8_bytes_per_page() {
        let outdeg = vec![1u32; 375_000];
        let ranks = vec![1.0 / 375_000.0; 375_000];
        let app = PageRank::new(&ranks, &outdeg, 0.85);
        let robj = Reduction::make_robj(&app);
        // The paper's robj is ~3 MB: 375k pages × 8 B = 3 MB exactly.
        assert_eq!(robj.byte_size(), 3_000_000);
    }

    #[test]
    fn mapreduce_matches_genred_mass() {
        use cloudburst_mapreduce::{run_mapreduce, EngineConfig};
        let data = gen_edges(30, 200, 13);
        let outdeg = PageRank::outdegrees(&data, 30);
        let ranks = vec![1.0 / 30.0; 30];
        let app = PageRank::new(&ranks, &outdeg, 0.85);
        let mass = reduce_serial(&app, [data.as_ref()]);
        let chunks: Vec<&[u8]> = data.chunks(20 * Edge::SIZE).collect();
        let (res, _) = run_mapreduce(&app, &chunks, EngineConfig::default());
        for (page, m) in res {
            assert!((m - mass.0[page as usize]).abs() < 1e-12);
        }
    }
}
