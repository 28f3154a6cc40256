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
/// units through [`Reduction::reduce_units`] — or, while the head may still
/// refuse the job, through [`Reduction::reduce_open`], and then accepts or
/// rolls back what that did.
pub trait Reduction: Send + Sync {
    /// One decoded data unit (the smallest atomically processed element).
    type Item: Send;
    /// The accumulator type.
    type RObj: ReductionObject;

    /// A fresh, empty reduction object ("initially declared by the
    /// programmer"; allocated by the middleware per worker).
    ///
    /// An object that a job writes at random — a dense rank vector, a
    /// raster grid — is returned *resident*: its storage comes from
    /// [`resident_zeros`], every page already backed, so the page faults of
    /// a lazily zeroed block are paid here, not by the first job that
    /// touches it. The runtime makes a journaling application's objects on
    /// the thread that calls the run, before its slaves spawn.
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

    /// Journal entries the [`Reduction::reduce_open`] of `units` units notes
    /// at most. `0`, the default, is an application whose open jobs reduce
    /// into a scratch object; the runtime reserves a journal only for one
    /// that says otherwise, at the bound of a chunk or more, and settles the
    /// open jobs before a job that would overflow it.
    fn journal_len(&self, units: usize) -> usize {
        let _ = units;
        0
    }

    /// Reduce a group of an *open* job's encoded units — work the head may
    /// still refuse, or that may panic half-way — so that
    /// [`Reduction::rollback`] can take it back out. The runtime reduces each
    /// isolated job through here, group by group, and ends every run of open
    /// jobs in one [`Reduction::accept`] or one [`Reduction::rollback`].
    ///
    /// The default reduces into `undo.scratch`, made fresh when there is none,
    /// and leaves `acc` alone: right whenever the object is no larger than a
    /// chunk's footprint in it (k-means centroids, a k-NN heap, a word-count
    /// map). Override all three hooks — with [`Reduction::journal_len`] —
    /// when the object is much larger than what one chunk touches (a dense
    /// rank vector, a raster grid): reduce straight into `acc`, exactly as
    /// [`Reduction::reduce_units`] would, noting each slot's old bits in
    /// `undo.journal` before it is written.
    fn reduce_open(
        &self,
        acc: &mut Self::RObj,
        undo: &mut Undo<Self::RObj>,
        units: &[u8],
        buf: &mut Vec<Self::Item>,
    ) {
        let _ = acc;
        let scratch = undo.scratch.get_or_insert_with(|| self.make_robj());
        self.reduce_units(scratch, units, buf);
    }

    /// Every open job was accepted: on return `acc` holds their work and
    /// `undo` holds nothing to take back. The default merges the scratch
    /// away; a journaling application clears its journal.
    fn accept(&self, acc: &mut Self::RObj, undo: &mut Undo<Self::RObj>) {
        if let Some(scratch) = undo.scratch.take() {
            acc.merge(scratch);
        }
    }

    /// Take every open job back, also one whose reduce panicked part-way: on
    /// return `acc` is, bit for bit, what it was at the last
    /// [`Reduction::accept`] or `rollback`, and `undo` holds nothing. The
    /// default drops the scratch; a journaling application replays its
    /// journal newest-first ([`Journal::undo`]).
    fn rollback(&self, acc: &mut Self::RObj, undo: &mut Undo<Self::RObj>) {
        let _ = acc;
        undo.scratch = None;
    }

    /// Optional cost-model hint: seconds of compute per unit on a reference
    /// core. Used only by the paper-scale simulator; the threaded runtime
    /// measures real time. `None` means "calibrate by measurement".
    fn compute_hint(&self) -> Option<Seconds> {
        None
    }
}

/// What a worker keeps to take back the jobs it has reduced and the head
/// has not yet accepted ([`Reduction::reduce_open`]): one of the two halves,
/// by the application's hooks.
#[derive(Debug, Default)]
pub struct Undo<O> {
    /// The default hooks' scratch object: the open jobs' units reduced into
    /// a fresh object, `None` while nothing is open.
    pub scratch: Option<O>,
    /// A journaling application's record of what the open jobs overwrote in
    /// the accumulator.
    pub journal: Journal,
}

impl<O> Undo<O> {
    /// Nothing open, with a journal of `journal` (empty for an application
    /// that does not journal).
    #[must_use]
    pub fn new(journal: Journal) -> Undo<O> {
        Undo { scratch: None, journal }
    }
}

/// An undo log of an accumulator's slots: before each write a journaling
/// application notes the slot and its old bits, and replaying the notes
/// newest-first restores the accumulator bit for bit. Reserved once by the
/// runtime, which never lets it grow: it settles the open jobs before a job
/// that would overflow it.
#[derive(Debug, Default)]
pub struct Journal(Vec<(usize, u64)>);

impl Journal {
    /// An empty journal with room for `entries` notes.
    #[must_use]
    pub fn with_capacity(entries: usize) -> Journal {
        Journal(Vec::with_capacity(entries))
    }

    /// `slot` held `bits` before the write about to happen.
    #[inline(always)]
    pub fn note(&mut self, slot: usize, bits: u64) {
        debug_assert!(self.0.len() < self.0.capacity(), "a journal never grows");
        self.0.push((slot, bits));
    }

    /// [`Journal::note`] each of `notes` in order: one check of the room
    /// for all of them.
    pub fn extend(&mut self, notes: impl ExactSizeIterator<Item = (usize, u64)>) {
        debug_assert!(notes.len() <= self.room(), "a journal never grows");
        self.0.extend(notes);
    }

    /// Whether no note is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Notes the journal takes before it would grow.
    #[must_use]
    pub fn room(&self) -> usize {
        self.0.capacity() - self.0.len()
    }

    /// Forget every note: the writes stand.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Take every write back: `restore(slot, bits)` for each note,
    /// newest-first, then forget them. A slot written twice ends with the
    /// bits it had before the first write.
    pub fn undo(&mut self, mut restore: impl FnMut(usize, u64)) {
        for &(slot, bits) in self.0.iter().rev() {
            restore(slot, bits);
        }
        self.0.clear();
    }
}

/// The smallest page size of any target: touching one element in every
/// `MIN_PAGE` bytes touches every page, whatever the page size.
const MIN_PAGE: usize = 4096;

/// `n` zeros (`T::default()`) whose pages are all backed when it returns:
/// the storage of a reduction object that jobs write at random.
///
/// A zero-filled block is asked for as `alloc_zeroed`, which a fresh
/// mapping serves with pages the kernel zeroes only when they are first
/// touched (and the optimiser folds a `resize` to zeros into the same call).
/// Touched by a job's random deposits, such a block takes up to two minor
/// faults a page, one to map the shared zero page on a read and one to copy
/// it on the write: ≈ 1 530 for a 3.2 MB rank vector, which made the first job
/// of every slave tens of times slower than the rest (DESIGN §3.4.2). So a
/// zero is written into every page here, opaquely to the optimiser: each
/// page takes one fault, on the calling thread, once.
#[must_use]
pub fn resident_zeros<T: Copy + Default>(n: usize) -> Vec<T> {
    let mut v = vec![T::default(); n];
    let stride = (MIN_PAGE / std::mem::size_of::<T>().max(1)).max(1);
    for slot in v.iter_mut().step_by(stride) {
        *std::hint::black_box(slot) = T::default();
    }
    v
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
    fn a_journal_replays_newest_first_to_the_bits_before_the_first_write() {
        let mut slots = [10u64, 20, 30];
        let mut journal = Journal::with_capacity(4);
        for (slot, value) in [(1, 21), (1, 22), (2, 31)] {
            journal.note(slot, slots[slot]);
            slots[slot] = value;
        }
        journal.extend([(0, slots[0])].into_iter());
        slots[0] = 11;
        assert_eq!(journal.room(), 0);
        journal.undo(|slot, bits| slots[slot] = bits);
        assert_eq!(slots, [10, 20, 30]);
        assert!(journal.is_empty() && journal.room() == 4, "undone notes are forgotten");
    }

    #[test]
    fn the_default_hooks_merge_a_scratch_on_accept_and_drop_it_on_rollback() {
        let app = SumApp;
        let (mut acc, mut undo) = (SumObj(5), Undo::new(Journal::default()));
        let mut buf = Vec::new();
        app.reduce_open(&mut acc, &mut undo, &encode(&[1, 2]), &mut buf);
        assert_eq!((&acc, &undo.scratch), (&SumObj(5), &Some(SumObj(3))), "acc untouched");
        app.rollback(&mut acc, &mut undo);
        assert_eq!((&acc, &undo.scratch), (&SumObj(5), &None));
        app.reduce_open(&mut acc, &mut undo, &encode(&[4]), &mut buf);
        app.accept(&mut acc, &mut undo);
        assert_eq!((&acc, &undo.scratch), (&SumObj(9), &None));
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
