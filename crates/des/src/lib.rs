//! # cloudburst-des
//!
//! A small deterministic discrete-event simulation engine: virtual time
//! ([`time`]), a future-event list with FIFO tie-breaking ([`queue`]), and
//! activity timelines with utilization curves and text Gantt charts
//! ([`trace`]). Contended stores and links are not modelled here: the
//! simulator reserves `cloudburst-netsim`'s `Pipe` on this clock, the same
//! pipe the threaded runtime reserves on the real one.
//!
//! `cloudburst-sim` builds the paper-scale cloud-bursting scenario on top of
//! this engine, replaying the *same* scheduling-policy objects the threaded
//! runtime uses, so simulated schedules are the real schedules under a cost
//! model rather than a re-implementation.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod queue;
pub mod time;
pub mod trace;

pub use queue::EventQueue;
pub use time::SimTime;
pub use trace::{Span, Timeline};
