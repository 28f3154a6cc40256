//! Transient-error classification and capped exponential backoff for
//! storage reads.
//!
//! Cloud object stores fail *transiently* all the time — reset connections,
//! throttled requests, timeouts — and the right response is to retry the
//! ranged read, not to fail the whole chunk back to the head (which would
//! cost a requeue round-trip and a fresh fetch of every other range of the
//! chunk). This module is the one place the framework decides which
//! [`io::ErrorKind`]s are worth retrying and how long to wait between
//! attempts: exponential backoff, capped, with deterministic seeded jitter
//! so replayed chaos runs back off identically.

use crate::store::ChunkStore;
use bytes::Bytes;
use cloudburst_core::fault::{det_hash, det_unit};
use cloudburst_core::{ByteSize, FileId};
use std::io;
use std::time::Duration;

/// Whether an I/O error kind is worth retrying.
///
/// Transient: the request may succeed if re-issued (network hiccups,
/// throttling, interrupted syscalls). Permanent: re-issuing the identical
/// request will fail the identical way (missing file, out-of-range read),
/// so retrying only wastes the backoff budget.
#[must_use]
pub fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::NotConnected
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::Interrupted
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::HostUnreachable
            | io::ErrorKind::NetworkUnreachable
            | io::ErrorKind::NetworkDown
            | io::ErrorKind::ResourceBusy
    )
}

/// Capped exponential backoff with deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries per range read after the initial attempt (so a range is read
    /// at most `max_retries + 1` times).
    pub max_retries: u32,
    /// Backoff before the first retry, in seconds.
    pub base: f64,
    /// Largest backoff ever waited, in seconds.
    pub cap: f64,
    /// Seed for the jitter, so two runs of the same plan sleep the same.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 4, base: 0.001, cap: 0.05, seed: 0 }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (0-based) of the range at
    /// `(file, offset)`: `min(cap, base · 2^attempt)`, jittered into
    /// `[50%, 100%]` of itself. Jitter decorrelates the retry storms of
    /// parallel range fetchers without sacrificing replay determinism.
    #[must_use]
    pub fn delay(&self, file: FileId, offset: ByteSize, attempt: u32) -> Duration {
        let exp = self.base * f64::powi(2.0, attempt.min(30) as i32);
        let capped = exp.min(self.cap).max(0.0);
        let h = det_hash(&[self.seed, 0xBAC0_0FF5, u64::from(file.0), offset, u64::from(attempt)]);
        let jitter = 0.5 + 0.5 * det_unit(h);
        Duration::from_secs_f64(capped * jitter)
    }
}

/// One transient failure absorbed by the retry loop, reported to a
/// [`RetryObserver`] *before* the backoff sleep — so an observer sees the
/// retry when it happens, not after the whole chunk lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryAttempt {
    /// File whose range read failed.
    pub file: FileId,
    /// Byte offset of the failing range.
    pub offset: ByteSize,
    /// 0-based retry number (the initial attempt is not reported).
    pub attempt: u32,
    /// The transient error kind being absorbed.
    pub kind: io::ErrorKind,
}

/// Callback invoked on every absorbed transient failure. `Sync` because the
/// concurrent range reads of one chunk share one observer.
pub type RetryObserver<'a> = &'a (dyn Fn(RetryAttempt) + Sync);

/// An owned, shareable retry observer for the fetch path, whose `'static`
/// pool tasks outlive the submitting stack frame and so cannot borrow a
/// [`RetryObserver`].
pub type SharedRetryObserver = std::sync::Arc<dyn Fn(RetryAttempt) + Send + Sync>;

/// Run `read` — one ranged read of `file` at `offset` — until it succeeds,
/// fails permanently or `policy`'s budget is spent, sleeping the policy's
/// backoff between attempts and reporting each absorbed failure to `observe`
/// before the sleep. Returns what the read returned and the retries it took.
fn retrying<T>(
    file: FileId,
    offset: ByteSize,
    policy: &RetryPolicy,
    observe: RetryObserver<'_>,
    mut read: impl FnMut() -> io::Result<T>,
) -> io::Result<(T, u64)> {
    let mut attempt: u32 = 0;
    loop {
        match read() {
            Ok(got) => return Ok((got, u64::from(attempt))),
            Err(e) if is_transient(e.kind()) && attempt < policy.max_retries => {
                observe(RetryAttempt { file, offset, attempt, kind: e.kind() });
                let wait = policy.delay(file, offset, attempt);
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Read `len` bytes of `file` at `offset` through the backend's zero-copy
/// [`ChunkStore::read`], retrying transient failures with backoff and
/// reporting each to `observe` as it happens, below the chunk level. Returns
/// the bytes and how many retries were needed; permanent errors and exhausted
/// budgets surface the last error. This is the leg a fetch of one range
/// stands on.
pub fn read_with_retry_observed<S: ChunkStore + ?Sized>(
    store: &S,
    file: FileId,
    offset: ByteSize,
    len: ByteSize,
    policy: &RetryPolicy,
    observe: RetryObserver<'_>,
) -> io::Result<(Bytes, u64)> {
    retrying(file, offset, policy, observe, || store.read(file, offset, len))
}

/// [`read_with_retry_observed`] over [`ChunkStore::read_into`]: fill the
/// caller's buffer in place (its length is the read length), with the same
/// retries, backoff and reports. Returns the retries absorbed. This is the
/// leg the reassembly of several ranges stands on — the buffer is a disjoint
/// part of the chunk's final allocation.
pub fn read_into_with_retry<S: ChunkStore + ?Sized>(
    store: &S,
    file: FileId,
    offset: ByteSize,
    out: &mut [u8],
    policy: &RetryPolicy,
    observe: RetryObserver<'_>,
) -> io::Result<u64> {
    retrying(file, offset, policy, observe, || store.read_into(file, offset, out))
        .map(|((), retries)| retries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_core::SiteId;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A store that fails the first `fail_first` reads transiently.
    struct Flaky {
        fail_first: u32,
        calls: AtomicU32,
        kind: io::ErrorKind,
    }

    impl ChunkStore for Flaky {
        fn site(&self) -> SiteId {
            SiteId::LOCAL
        }
        fn read(&self, _file: FileId, _offset: ByteSize, len: ByteSize) -> io::Result<Bytes> {
            let n = self.calls.fetch_add(1, Ordering::SeqCst);
            if n < self.fail_first {
                Err(io::Error::new(self.kind, "flaky"))
            } else {
                Ok(Bytes::from(vec![7u8; len as usize]))
            }
        }
        fn file_len(&self, _file: FileId) -> io::Result<ByteSize> {
            Ok(u64::MAX)
        }
        fn n_files(&self) -> usize {
            1
        }
    }

    #[test]
    fn classification_separates_transient_from_permanent() {
        assert!(is_transient(io::ErrorKind::ConnectionReset));
        assert!(is_transient(io::ErrorKind::TimedOut));
        assert!(is_transient(io::ErrorKind::Interrupted));
        assert!(!is_transient(io::ErrorKind::NotFound));
        assert!(!is_transient(io::ErrorKind::UnexpectedEof));
        assert!(!is_transient(io::ErrorKind::InvalidInput));
        assert!(!is_transient(io::ErrorKind::PermissionDenied));
    }

    #[test]
    fn backoff_grows_and_caps_with_bounded_jitter() {
        let p = RetryPolicy { max_retries: 8, base: 0.001, cap: 0.008, seed: 3 };
        let mut prev_max = 0.0f64;
        for attempt in 0..8 {
            let d = p.delay(FileId(0), 0, attempt).as_secs_f64();
            let full = (0.001 * f64::powi(2.0, attempt as i32)).min(0.008);
            assert!(d >= full * 0.5 - 1e-12, "attempt {attempt}: {d} below jitter floor");
            assert!(d <= full + 1e-12, "attempt {attempt}: {d} above cap");
            assert!(full >= prev_max, "backoff must be monotone before the cap");
            prev_max = full;
        }
        // Deterministic for the same (seed, file, offset, attempt).
        assert_eq!(p.delay(FileId(1), 64, 2), p.delay(FileId(1), 64, 2));
    }

    #[test]
    fn transient_failures_are_absorbed() {
        let store =
            Flaky { fail_first: 3, calls: AtomicU32::new(0), kind: io::ErrorKind::ConnectionReset };
        let policy = RetryPolicy { base: 0.0, cap: 0.0, ..RetryPolicy::default() };
        let (bytes, retries) =
            read_with_retry_observed(&store, FileId(0), 0, 16, &policy, &|_| {}).unwrap();
        assert_eq!(bytes.len(), 16);
        assert_eq!(retries, 3);
    }

    #[test]
    fn observer_sees_each_absorbed_failure_in_order() {
        use std::sync::Mutex;
        let store =
            Flaky { fail_first: 3, calls: AtomicU32::new(0), kind: io::ErrorKind::TimedOut };
        let policy = RetryPolicy { base: 0.0, cap: 0.0, ..RetryPolicy::default() };
        let seen: Mutex<Vec<RetryAttempt>> = Mutex::new(Vec::new());
        let (_, retries) = read_with_retry_observed(&store, FileId(2), 64, 16, &policy, &|a| {
            seen.lock().unwrap().push(a);
        })
        .unwrap();
        let seen = seen.into_inner().unwrap();
        assert_eq!(retries, 3);
        assert_eq!(seen.len(), 3, "one report per absorbed failure");
        for (i, a) in seen.iter().enumerate() {
            assert_eq!(
                *a,
                RetryAttempt {
                    file: FileId(2),
                    offset: 64,
                    attempt: i as u32,
                    kind: io::ErrorKind::TimedOut
                }
            );
        }
    }

    #[test]
    fn read_into_retries_and_fills_the_caller_buffer() {
        let store =
            Flaky { fail_first: 2, calls: AtomicU32::new(0), kind: io::ErrorKind::BrokenPipe };
        let policy = RetryPolicy { base: 0.0, cap: 0.0, ..RetryPolicy::default() };
        let mut buf = [0u8; 16];
        let retries =
            read_into_with_retry(&store, FileId(0), 0, &mut buf, &policy, &|_| {}).unwrap();
        assert_eq!(retries, 2);
        assert_eq!(buf, [7u8; 16]);
    }

    #[test]
    fn permanent_errors_fail_immediately() {
        let store =
            Flaky { fail_first: 1, calls: AtomicU32::new(0), kind: io::ErrorKind::NotFound };
        let policy = RetryPolicy { base: 0.0, cap: 0.0, ..RetryPolicy::default() };
        let err = read_with_retry_observed(&store, FileId(0), 0, 16, &policy, &|_| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert_eq!(store.calls.load(Ordering::SeqCst), 1, "no retry on permanent errors");
    }

    #[test]
    fn exhausted_budget_surfaces_the_transient_error() {
        let store =
            Flaky { fail_first: 10, calls: AtomicU32::new(0), kind: io::ErrorKind::TimedOut };
        let policy = RetryPolicy { max_retries: 2, base: 0.0, cap: 0.0, seed: 0 };
        let err = read_with_retry_observed(&store, FileId(0), 0, 16, &policy, &|_| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(store.calls.load(Ordering::SeqCst), 3, "initial + 2 retries");
    }
}
