//! # cloudburst-sim
//!
//! The paper-scale simulation harness: runs the framework's real protocol
//! (`HeadCore`, `MasterPool`, `SlaveCore`) against a calibrated cost
//! model of the paper's testbed (12 GB datasets, a campus cluster with a
//! dedicated storage node, EC2 + S3, a 2011-era WAN), regenerating every
//! figure and table of the evaluation (§IV) in seconds of CPU time.
//!
//! * [`model`] — per-application resource signatures (knn / kmeans /
//!   pagerank);
//! * [`params`] — the testbed's storage/WAN/compute parameters;
//! * [`multi`] — the discrete-event simulation itself, over any number of
//!   sites; [`scenario`] — the paper's two sites;
//! * [`figures`] — one function per figure/table of the paper;
//! * [`cost`] — the dollar-cost model and deadline-provisioning planner
//!   (the authors' follow-up extension).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cost;
pub mod figures;
pub mod model;
pub mod multi;
pub mod params;
pub mod scenario;

pub use cost::{
    burst_frontier, cost_of, cost_of_usage, provision_for_deadline, BurstOption, CostReport,
    PricingModel,
};
pub use model::AppModel;
pub use multi::{
    simulate_multi, simulate_multi_instrumented, simulate_multi_traced, Activity, MultiEnv,
    SiteSpec,
};
pub use params::{ResourceSpec, SimParams};
pub use scenario::simulate;
