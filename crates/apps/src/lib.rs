//! # cloudburst-apps
//!
//! The paper's three representative data-intensive applications —
//! [`knn`] (I/O-bound, tiny reduction object), [`kmeans`] (compute-bound,
//! small reduction object) and [`pagerank`] (balanced, *large* reduction
//! object) — plus [`wordcount`] for the quickstart, each implemented
//! against **both** the Generalized Reduction API and the MapReduce
//! baseline, with seeded synthetic dataset generators ([`gen`]) and serial
//! oracles for correctness testing.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod gen;
pub mod gridding;
pub mod kmeans;
mod kmeans_kernel;
pub mod knn;
pub mod pagerank;
pub mod units;
pub mod wordcount;

pub use gridding::{gridding_oracle, Grid2D, Gridding, Sample};
pub use kmeans::{kmeans_oracle, KMeans, KMeansObj};
pub use knn::{knn_oracle, Knn, KnnObj, Neighbor};
pub use pagerank::{pagerank_oracle, PageRank, RankMass};
pub use units::{Edge, IdPoint, Point, Word};
pub use wordcount::{wordcount_oracle, WordCount, WordCounts};
