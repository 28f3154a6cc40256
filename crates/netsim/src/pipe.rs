//! The one transfer rule: a pipe of identical channels, reserved
//! earliest-free first.
//!
//! A [`Pipe`] has no clock. Its caller says what time it is: the threaded
//! runtime reads a real clock and sleeps until the transfer is done
//! ([`crate::Throttle`]), and the discrete-event simulator passes virtual
//! time and schedules the finish as an event. Both clocks therefore charge
//! every modelled transfer by the same rule, written once, here.

use crate::link::{LinkSpec, Seconds};

/// `channels` identical channels of one [`LinkSpec`]. A transfer holds one
/// channel for `latency + bytes / bandwidth`; when every channel is busy it
/// queues behind the one that frees first.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipe {
    spec: LinkSpec,
    /// When each channel is next free, on the caller's clock.
    free_at: Vec<Seconds>,
}

impl Pipe {
    /// A pipe of `channels` channels of `spec`, all free at time zero.
    ///
    /// # Panics
    /// Panics if `channels == 0`.
    #[must_use]
    pub fn new(spec: LinkSpec, channels: usize) -> Pipe {
        assert!(channels > 0, "a pipe needs at least one channel");
        Pipe { spec, free_at: vec![0.0; channels] }
    }

    /// Hold the earliest-free channel from `max(now, free_at)` for
    /// `spec.transfer_time(bytes)` and return when the transfer finishes.
    /// Callers reserve in non-decreasing `now`, as an event loop or a clock
    /// read under a lock does.
    pub fn reserve(&mut self, now: Seconds, bytes: u64) -> Seconds {
        let channel =
            self.free_at.iter_mut().min_by(|a, b| a.total_cmp(b)).expect("a pipe has a channel");
        *channel = channel.max(now) + self.spec.transfer_time(bytes);
        *channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::profiles;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn k_channels_take_k_requests_at_one_latency_and_queue_the_next() {
        let k = 5;
        let mut pipe = Pipe::new(LinkSpec::new(0.25, 1e6), k);
        for _ in 0..k {
            assert_eq!(pipe.reserve(0.0, 0), 0.25);
        }
        assert_eq!(pipe.reserve(0.0, 0), 0.5, "the (k+1)-th waits for a channel");
    }

    #[test]
    fn bytes_serialize_on_one_channel() {
        // Two 5 s transfers on one channel end at 10 s.
        let mut pipe = Pipe::new(LinkSpec::new(0.0, 200.0), 1);
        assert_eq!(pipe.reserve(0.0, 1000), 5.0);
        assert_eq!(pipe.reserve(0.0, 1000), 10.0);
    }

    #[test]
    fn an_idle_channel_starts_at_the_request() {
        let mut pipe = Pipe::new(LinkSpec::new(1.0, 1.0), 1);
        assert_eq!(pipe.reserve(10.0, 2), 13.0);
    }

    #[test]
    fn the_s3_aggregate_pipe_charges_every_get_its_first_byte_in_series() {
        // `S3Config::paper`'s aggregate pipe is one channel of
        // `s3_host_cap`. The knn burst's 24 cloud chunks are 96 GETs of
        // 524 000 B, issued together: each waits out the previous GET's
        // 30 ms first byte, 96 × (30 ms + 524 000 B ÷ 90 MB/s) ≈ 3.44 s.
        let mut pipe = Pipe::new(profiles::s3_host_cap(), 1);
        let last = (0..96).map(|_| pipe.reserve(0.0, 524_000)).last().unwrap();
        let expected = 96.0 * (30e-3 + 524_000.0 / 90e6);
        assert!((last - expected).abs() < 1e-9, "{last} vs {expected}");
        assert!((last - 3.44).abs() < 0.005, "{last}");
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = Pipe::new(profiles::wan(), 0);
    }

    proptest! {
        #[test]
        fn finishes_follow_the_earliest_free_rule(
            channels in 1usize..8,
            latency in 0.0f64..0.1,
            bandwidth in 1.0f64..1e6,
            requests in prop::collection::vec((0.0f64..0.05, 0u64..100_000), 1..200),
        ) {
            // The reference keeps the channels' free times in a min-heap:
            // each request takes the earliest, starts when both it and the
            // channel are ready, and puts the channel back at its finish.
            // Free times are non-negative, so their bits order as they do.
            let spec = LinkSpec::new(latency, bandwidth);
            let mut pipe = Pipe::new(spec, channels);
            let mut free: BinaryHeap<Reverse<u64>> = (0..channels).map(|_| Reverse(0)).collect();
            let mut now = 0.0;
            for (gap, bytes) in requests {
                now += gap;
                let Reverse(earliest) = free.pop().unwrap();
                let expected = f64::from_bits(earliest).max(now) + spec.transfer_time(bytes);
                free.push(Reverse(expected.to_bits()));
                prop_assert_eq!(pipe.reserve(now, bytes), expected);
            }
        }
    }
}
