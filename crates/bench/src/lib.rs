//! Workload generators and the measurement harness used to regenerate every
//! figure of the Spitz paper.
//!
//! * [`workload`] — the evaluation workloads of Section 6.2: key/value
//!   records with 5–12 byte keys and 20 byte values, read-only / write-only
//!   mixes, range queries with 0.1% selectivity, and the WIKI-page
//!   versioning workload behind Figure 1.
//! * [`harness`] — throughput measurement and the row/series printer whose
//!   output mirrors the figures.
//! * [`systems`] — helpers that load the same workload into each evaluated
//!   system (Spitz, the immutable KVS, the QLDB-like baseline, and the
//!   non-intrusive composition).
//!
//! The binaries (`fig1_storage`, `fig6_basic_ops`, `fig7_range`,
//! `fig8_nonintrusive`, `ablations`) print the same series the paper plots,
//! as Markdown tables; `ci/paper-figures.sh` runs all five and its output
//! is BASELINES.md. Performance claims are measured by the `benchmark/`
//! crate, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod systems;
pub mod workload;

pub use harness::{measure_throughput, median_throughput, FigureTable};
pub use workload::{KeyValueWorkload, WikiWorkload, WorkloadConfig};
