//! Real-time bandwidth/latency enforcement for the threaded runtime.
//!
//! The threaded runtime executes on one machine, so "remote" transfers must
//! be slowed down artificially to exercise the same code paths the paper's
//! geo-distributed deployment does. [`Throttle`] is a [`Pipe`] under a
//! mutex on the real clock: concurrent callers reserve its channels and
//! sleep until their transfer is done, so they genuinely compete for the
//! modelled bandwidth, exactly like slaves sharing the S3 egress pipe.
//!
//! A global `time_scale` lets tests compress the modelled world (e.g.
//! `1e-3`: one modelled second = one real millisecond) while preserving every
//! *ratio* the experiments care about.

use crate::link::{LinkSpec, Seconds};
use crate::pipe::Pipe;
use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// A [`Pipe`] on the real clock: transfers reserve its channels at the
/// (scaled) time they arrive and sleep until they are done.
pub struct Throttle {
    /// Multiplier from modelled seconds to real seconds.
    time_scale: f64,
    /// Real instant of modelled time zero.
    start: Instant,
    /// The pipe, on the modelled clock.
    pipe: Mutex<Pipe>,
}

impl std::fmt::Debug for Throttle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Throttle")
            .field("pipe", &*self.pipe.lock())
            .field("time_scale", &self.time_scale)
            .finish()
    }
}

impl Throttle {
    /// A throttle enforcing one channel of `spec`, with modelled time
    /// compressed by `time_scale` (1.0 = real time; 1e-3 = 1000x faster).
    ///
    /// # Panics
    /// Panics if `time_scale` is not finite and positive.
    #[must_use]
    pub fn new(spec: LinkSpec, time_scale: f64) -> Throttle {
        Throttle::with_channels(spec, 1, time_scale)
    }

    /// A throttle over `channels` identical channels of `spec`.
    ///
    /// # Panics
    /// Panics if `time_scale` is not finite and positive, or `channels == 0`.
    #[must_use]
    pub fn with_channels(spec: LinkSpec, channels: usize, time_scale: f64) -> Throttle {
        assert!(
            time_scale.is_finite() && time_scale > 0.0,
            "time_scale must be finite and positive"
        );
        Throttle { time_scale, start: Instant::now(), pipe: Mutex::new(Pipe::new(spec, channels)) }
    }

    /// Reserve a transfer of `bytes` now without waiting for it: the real
    /// instant it finishes and the modelled seconds it takes, queueing
    /// included.
    pub fn reserve(&self, bytes: u64) -> (Instant, Seconds) {
        let mut pipe = self.pipe.lock();
        let now = self.start.elapsed().as_secs_f64() / self.time_scale;
        let done = pipe.reserve(now, bytes);
        (self.start + Duration::from_secs_f64(done * self.time_scale), done - now)
    }

    /// Block the caller for the (scaled) time a transfer of `bytes` takes,
    /// *including queueing behind other in-flight transfers*. Returns the
    /// modelled (unscaled) seconds the transfer took, queueing included.
    pub fn transfer(&self, bytes: u64) -> f64 {
        let (done, modelled) = self.reserve(bytes);
        sleep_until(done);
        modelled
    }
}

/// Sleep until `deadline`, in slices of at most 50 ms.
pub fn sleep_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(50)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn spec(latency: f64, bw: f64) -> LinkSpec {
        LinkSpec::new(latency, bw)
    }

    #[test]
    fn transfer_takes_modelled_time() {
        // 1 KB at 1 MB/s with 1 ms latency = ~2 ms modelled; scale 1.0.
        let t = Throttle::new(spec(1e-3, 1e6), 1.0);
        let before = Instant::now();
        let modelled = t.transfer(1000);
        let real = before.elapsed().as_secs_f64();
        assert!(modelled >= 2e-3 - 1e-9, "modelled {modelled}");
        assert!(real >= 1.5e-3, "real {real}");
    }

    #[test]
    fn time_scale_compresses_real_time() {
        // 10 modelled seconds at scale 1e-4 = ~1 ms real.
        let t = Throttle::new(spec(0.0, 100.0), 1e-4);
        let before = Instant::now();
        let modelled = t.transfer(1000); // 10 modelled s
        let real = before.elapsed().as_secs_f64();
        assert!(modelled >= 10.0 - 1e-6);
        assert!(real < 0.5, "real {real} should be ~1ms");
    }

    #[test]
    fn concurrent_transfers_share_bandwidth() {
        // Two 5-modelled-second transfers through one link must take ~10
        // modelled seconds of link capacity: the second queues.
        let t = Arc::new(Throttle::new(spec(0.0, 200.0), 1e-3));
        let before = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    t.transfer(1000) // 5 modelled seconds each
                });
            }
        });
        let real = before.elapsed().as_secs_f64();
        // 10 modelled seconds at 1e-3 = 10 ms real, minus scheduling slack.
        assert!(real >= 8e-3, "two transfers must serialize, took {real}");
    }

    #[test]
    fn reserve_books_the_channel_without_waiting() {
        // 1000 B at 1 B/s is 1000 modelled seconds of real time each.
        let t = Throttle::new(spec(0.0, 1.0), 1.0);
        let before = Instant::now();
        let (first, m1) = t.reserve(1000);
        let (second, m2) = t.reserve(1000);
        assert!(before.elapsed() < Duration::from_secs(1));
        assert!(second >= first + Duration::from_secs(999));
        assert!(m1 >= 999.0 && m2 >= 1999.0, "{m1} {m2}");
    }

    #[test]
    #[should_panic(expected = "time_scale")]
    fn rejects_zero_scale() {
        let _ = Throttle::new(spec(0.0, 1.0), 0.0);
    }
}
