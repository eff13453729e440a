//! Transaction substrate for the Spitz verifiable database.
//!
//! Section 5.2 of the paper: cells in Spitz are multi-versioned, so the
//! concurrency control mechanisms "based on MVCC, including MVCC with 2PL,
//! MVCC with timestamp ordering (T/O), MVCC with OCC, are more suitable";
//! distributed transactions across processor nodes are coordinated with
//! two-phase commit ordered by start timestamps from a timestamp oracle (or
//! hybrid logical clocks).
//!
//! This crate provides those building blocks:
//!
//! * [`timestamp`] — a monotonic [`timestamp::TimestampOracle`].
//! * [`mvcc`] — a multi-version key/value store with snapshot reads.
//! * [`manager`] — transactions, isolation levels and the three MVCC
//!   validators (OCC, timestamp ordering, two-phase locking).
//! * [`twopc`] — a two-phase-commit coordinator over in-process participants
//!   (the paper's multi-node control layer, simulated in one process).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manager;
pub mod mvcc;
pub mod timestamp;
pub mod twopc;

pub use manager::{CcScheme, IsolationLevel, Transaction, TransactionManager, TxnError};
pub use mvcc::MvccStore;
pub use timestamp::TimestampOracle;
pub use twopc::{Participant, PreparedApply, PreparedGlobal, TwoPhaseCoordinator, Vote};
