//! Shared scenario code for the benchmark harness.
//!
//! The star is the S3Sim-heavy *overlap* scenario behind the
//! `pipeline_overlap` bench and `repro runtime`: a knn-style compute
//! reduction over cloud-resident data behind the simulated S3, with
//! per-chunk fetch and processing deliberately comparable so slave
//! pipelining (`pipeline_depth >= 2`) can hide one behind the other.

pub mod coded;
pub mod overlap;
