//! # cloudburst-cluster
//!
//! The threaded cloud-bursting runtime: a faithful, executable version of
//! the paper's architecture (Fig. 2) where sites are thread pools, the
//! control plane (head → master → slave job assignment, with on-demand
//! pooling and inter-cluster work stealing) flows over channels, and every
//! inter-site interaction is charged against the `cloudburst-netsim` link
//! model — master↔head RPCs, cross-site chunk retrieval, and the
//! reduction-object exchange at global reduction.
//!
//! Entry points: [`run_hybrid`] (channels) and [`run_hybrid_tcp`] (the
//! same protocol with the head ↔ master control plane over real TCP
//! sockets, see [`net`]/[`wire`]) — one run scaffold in [`runtime`] under
//! both, which asks the transport only for what differs. There is one head, [`HeadCore`] — a state
//! machine that does no I/O — behind two adapters: [`head`] feeds it from a
//! channel, [`reactor`] from every TCP connection on one `poll(2)` thread,
//! speaking the one batched wire protocol of [`wire`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod error;
pub mod head;
pub mod head_core;
pub mod net;
pub mod protocol;
pub mod reactor;
mod readiness;
pub mod router;
pub mod runtime;
pub mod wire;

pub use error::RunError;
pub use head::{run_head, HeadOptions};
pub use head_core::HeadCore;
pub use net::{run_hybrid_tcp, serve_head, CancelBoard};
pub use protocol::{HeadMsg, HeadReport, MasterMsg};
pub use router::{Fetched, StoreRouter};
pub use runtime::{check_units, run_hybrid, FaultPolicy, FtConfig, RunOutcome, RuntimeConfig};
