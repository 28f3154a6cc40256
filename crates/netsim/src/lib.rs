//! # cloudburst-netsim
//!
//! The network substrate of the cloudburst framework: link specifications
//! and transfer-time arithmetic ([`link`]), the one transfer rule — a
//! clock-free pipe of identical channels reserved earliest-free first
//! ([`pipe`]) — the pipe on the real clock for the threaded runtime
//! ([`throttle`]), the inter-site links of the paper's testbed
//! ([`topology`]), and the deterministic EC2 performance-variability model
//! ([`jitter`]).
//!
//! Every modelled transfer of both runtimes goes through [`Pipe::reserve`]:
//! the threaded runtime's (WAN reads, S3 GETs, the reduction-object push)
//! through [`Throttle`], which reads the real clock and sleeps, and the
//! paper-scale simulator's (site stores, the WAN) on its virtual clock.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod jitter;
pub mod link;
pub mod pipe;
pub mod throttle;
pub mod topology;

pub use jitter::Jitter;
pub use link::{profiles, LinkSpec};
pub use pipe::Pipe;
pub use throttle::{sleep_until, Throttle};
pub use topology::Topology;
