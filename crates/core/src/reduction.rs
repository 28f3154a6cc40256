//! The Generalized Reduction programming model (paper §III-A).
//!
//! The API has two phases:
//!
//! * **Local reduction** — `proc(e)`: each data element is processed and
//!   folded into the *reduction object* immediately, before the next element
//!   is touched. Map, combine, and reduce are fused, so no intermediate
//!   `(key, value)` pairs are materialized, sorted, grouped, or shuffled.
//! * **Global reduction** — after all elements are processed, the reduction
//!   objects from all workers/sites are merged (an all-to-all collective or a
//!   user-defined function) into the final result.
//!
//! Correctness contract (paper): "The result of this processing must be
//! independent of the order in which data elements are processed" — i.e.
//! [`Merge`] must be commutative and associative with respect to
//! `local_reduce`, and the property tests in this workspace check exactly
//! that for every shipped application and combiner.

use crate::types::Seconds;
use bytes::Bytes;

/// Pairwise combination of two partial results — the global-reduction step.
///
/// Implementations must be **associative** and **commutative** up to the
/// application's notion of equivalence, or the final result would depend on
/// the nondeterministic processing order.
pub trait Merge {
    /// Fold `other` into `self`.
    fn merge(&mut self, other: Self);
}

/// An accumulator for generalized reduction.
///
/// "This data structure is designed by the application developer. However,
/// memory allocation and access operations to this object are managed by the
/// middleware for efficiency."
pub trait ReductionObject: Merge + Send + 'static {
    /// Size of the object when transferred between sites, in bytes. Used to
    /// charge the inter-cluster link during global reduction (the paper's
    /// pagerank robj is ~3 MB and dominates its sync time).
    fn byte_size(&self) -> usize;
}

/// A data-analysis application written against the Generalized Reduction API.
///
/// Applications provide: the reduction object, how to decode a chunk of raw
/// bytes into data units, and the `proc(e)` local reduction. The runtime
/// owns everything else: chunk retrieval, cache-sized unit grouping, worker
/// scheduling, and the global reduction. It reduces every group of fetched
/// units through [`Reduction::reduce_units`].
pub trait Reduction: Send + Sync {
    /// One decoded data unit (the smallest atomically processed element).
    type Item: Send;
    /// The accumulator type.
    type RObj: ReductionObject;

    /// A fresh, empty reduction object ("initially declared by the
    /// programmer"; allocated by the middleware per worker).
    fn make_robj(&self) -> Self::RObj;

    /// Size in bytes of one encoded data unit.
    fn unit_size(&self) -> usize;

    /// Decode a chunk's raw bytes into data units, appending to `out`.
    /// `chunk.len()` is always a multiple of [`Reduction::unit_size`].
    fn decode(&self, chunk: &[u8], out: &mut Vec<Self::Item>);

    /// `proc(e)`: process one data element and fold it into `robj`.
    fn local_reduce(&self, robj: &mut Self::RObj, item: &Self::Item);

    /// Process a cache-sized group of units. The default folds items one by
    /// one; applications may override for vectorized inner loops.
    fn reduce_group(&self, robj: &mut Self::RObj, items: &[Self::Item]) {
        for item in items {
            self.local_reduce(robj, item);
        }
    }

    /// Process a cache-sized group of *encoded* units, `units.len()` a
    /// multiple of [`Reduction::unit_size`]: the one call the runtime makes
    /// on fetched data. The default decodes the group into `buf` (cleared
    /// first; the caller reuses it from group to group) and hands it to
    /// [`Reduction::reduce_group`]. An application whose units can be read
    /// where they lie overrides it to skip that copy, and must fold exactly
    /// what the default would.
    fn reduce_units(&self, robj: &mut Self::RObj, units: &[u8], buf: &mut Vec<Self::Item>) {
        buf.clear();
        self.decode(units, buf);
        self.reduce_group(robj, buf);
    }

    /// Fold accepted work into the worker's accumulator. `scratch` was equal
    /// to a fresh [`Reduction::make_robj`] before exactly the encoded units
    /// of `chunks` were reduced into it, in order: one job's chunk, or the
    /// chunks of several jobs one after the other (the runtime settles a
    /// whole hand-off of jobs in one call when the head accepted them all;
    /// units may repeat across those jobs as they may within one). On return
    /// `acc` must hold what `acc.merge(scratch)` would have produced and
    /// `scratch` must again equal a fresh `make_robj()`, because the runtime
    /// keeps one scratch object per worker and reuses it for the next batch.
    ///
    /// The default swaps in a new object and merges the old one, which is
    /// right whenever the object is no larger than a chunk's footprint in it
    /// (k-means centroids, a k-NN heap, a word-count map). Override it —
    /// together with [`Reduction::discard`] — when the object is much larger
    /// than what one chunk touches (a dense rank vector, a raster grid): walk
    /// the units of `chunks`, move only the entries they hit, and zero those
    /// entries, so committing costs O(units) instead of O(object).
    fn commit(&self, acc: &mut Self::RObj, scratch: &mut Self::RObj, chunks: &[Bytes]) {
        let _ = chunks;
        acc.merge(std::mem::replace(scratch, self.make_robj()));
    }

    /// Throw work away (the head rejected or revoked a job of the batch):
    /// return `scratch`, into which exactly the units of `chunks` — one
    /// job's chunk or several jobs' in order — were reduced, to the state of
    /// a fresh [`Reduction::make_robj`]. Same contract and same reason to
    /// override as [`Reduction::commit`].
    fn discard(&self, scratch: &mut Self::RObj, chunks: &[Bytes]) {
        let _ = chunks;
        *scratch = self.make_robj();
    }

    /// Optional cost-model hint: seconds of compute per unit on a reference
    /// core. Used only by the paper-scale simulator; the threaded runtime
    /// measures real time. `None` means "calibrate by measurement".
    fn compute_hint(&self) -> Option<Seconds> {
        None
    }
}

/// Sequentially process a whole dataset (all chunks, in order) on one core —
/// the reference oracle used by tests and the centralized baseline.
pub fn reduce_serial<R: Reduction>(
    app: &R,
    chunks: impl IntoIterator<Item = impl AsRef<[u8]>>,
) -> R::RObj {
    let mut robj = app.make_robj();
    let mut buf = Vec::new();
    for chunk in chunks {
        app.reduce_units(&mut robj, chunk.as_ref(), &mut buf);
    }
    robj
}

/// Merge an iterator of partial reduction objects into one (the global
/// reduction collective). Returns `None` for an empty iterator.
pub fn global_reduce<R: ReductionObject>(parts: impl IntoIterator<Item = R>) -> Option<R> {
    let mut iter = parts.into_iter();
    let mut acc = iter.next()?;
    for part in iter {
        acc.merge(part);
    }
    Some(acc)
}

/// Merge partial reduction objects with a parallel binary reduction tree:
/// each round pairs adjacent survivors `(0,1), (2,3), …` and merges the
/// pairs concurrently, so a site with `w` workers combines in `⌈log₂ w⌉`
/// rounds of wall time instead of `w − 1` sequential merges. The tree shape
/// depends only on `parts.len()`, never on thread timing, so runs with the
/// same per-worker partials merge identically. Two or fewer parts fall back
/// to the linear fold — no threads spawned.
pub fn tree_reduce<R: ReductionObject>(mut parts: Vec<R>) -> Option<R> {
    while parts.len() > 2 {
        // An odd tail survives the round untouched and re-enters at the end,
        // keeping the pairing deterministic.
        let carry = (parts.len() % 2 == 1).then(|| parts.pop().expect("non-empty"));
        let mut merged: Vec<R> = Vec::with_capacity(parts.len() / 2 + 1);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(parts.len() / 2);
            let mut it = parts.drain(..);
            while let (Some(mut a), Some(b)) = (it.next(), it.next()) {
                handles.push(scope.spawn(move || {
                    a.merge(b);
                    a
                }));
            }
            drop(it);
            merged.extend(handles.into_iter().map(|h| h.join().expect("merge thread panicked")));
        });
        merged.extend(carry);
        parts = merged;
    }
    global_reduce(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal app: units are little-endian u32s, robj is their sum.
    struct SumApp;

    #[derive(Debug, PartialEq, Eq)]
    struct SumObj(u64);

    impl Merge for SumObj {
        fn merge(&mut self, other: Self) {
            self.0 += other.0;
        }
    }
    impl ReductionObject for SumObj {
        fn byte_size(&self) -> usize {
            8
        }
    }
    impl Reduction for SumApp {
        type Item = u32;
        type RObj = SumObj;
        fn make_robj(&self) -> SumObj {
            SumObj(0)
        }
        fn unit_size(&self) -> usize {
            4
        }
        fn decode(&self, chunk: &[u8], out: &mut Vec<u32>) {
            out.extend(chunk.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().unwrap())));
        }
        fn local_reduce(&self, robj: &mut SumObj, item: &u32) {
            robj.0 += u64::from(*item);
        }
    }

    fn encode(vals: &[u32]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn serial_reduction_sums_all_chunks() {
        let chunks = [encode(&[1, 2, 3]), encode(&[10, 20])];
        let robj = reduce_serial(&SumApp, &chunks);
        assert_eq!(robj, SumObj(36));
    }

    #[test]
    fn global_reduce_merges_partials() {
        let merged = global_reduce([SumObj(5), SumObj(7), SumObj(1)]).unwrap();
        assert_eq!(merged, SumObj(13));
    }

    #[test]
    fn global_reduce_of_nothing_is_none() {
        assert!(global_reduce(std::iter::empty::<SumObj>()).is_none());
    }

    #[test]
    fn tree_reduce_matches_linear_fold_at_every_width() {
        for n in 0..=17u64 {
            let parts: Vec<SumObj> = (1..=n).map(SumObj).collect();
            let linear = global_reduce((1..=n).map(SumObj));
            assert_eq!(tree_reduce(parts), linear, "width {n}");
        }
    }

    #[test]
    fn split_processing_equals_serial() {
        // Process the same units in two partitions and merge: must equal the
        // one-pass result (the order-independence contract).
        let all = [3u32, 1, 4, 1, 5, 9, 2, 6];
        let serial = reduce_serial(&SumApp, [encode(&all)]);
        let a = reduce_serial(&SumApp, [encode(&all[..3])]);
        let b = reduce_serial(&SumApp, [encode(&all[3..])]);
        let merged = global_reduce([a, b]).unwrap();
        assert_eq!(serial, merged);
    }

    #[test]
    fn reduce_group_default_matches_item_loop() {
        let app = SumApp;
        let mut g = app.make_robj();
        app.reduce_group(&mut g, &[1, 2, 3, 4]);
        let mut s = app.make_robj();
        for i in [1u32, 2, 3, 4] {
            app.local_reduce(&mut s, &i);
        }
        assert_eq!(g, s);
    }

    #[test]
    fn reduce_units_default_decodes_each_group_afresh() {
        let app = SumApp;
        let mut robj = app.make_robj();
        // Stale units in the reused buffer are not reduced again.
        let mut buf = vec![1000, 2000];
        app.reduce_units(&mut robj, &encode(&[1, 2, 3]), &mut buf);
        app.reduce_units(&mut robj, &encode(&[10]), &mut buf);
        assert_eq!(robj, SumObj(16));
        assert_eq!(buf, [10]);
    }
}
