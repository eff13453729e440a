//! Deterministic fault injection for storage-backed tests and chaos
//! harnesses.
//!
//! Three complementary tools live here:
//!
//! * [`FaultInjector`] — a seeded [`SegmentIo`](spitz_storage::SegmentIo)
//!   implementation installed *beneath* a durable store's file I/O. It can
//!   tear a write at an arbitrary prefix, flip a bit, report `ENOSPC`, fail
//!   transiently, or fail an fsync — either at exact operation counts or at
//!   seeded random rates. Every decision is a pure function of the seed and
//!   the operation index, so a failing schedule replays from its printed
//!   seed alone.
//! * [`FailpointStore`] — a [`ChunkStore`](spitz_storage::ChunkStore)
//!   wrapper that injects failures
//!   *above* the store API after a configured countdown of write
//!   operations. This is the right layer for simulating whole-shard death
//!   and vote-abort behavior in the sharded 2PC tests, where the in-memory
//!   stores have no segment I/O to hook.
//! * [`SeededRng`] — a counter-mode splitmix64 stream for shaping fuzz
//!   cases and chaos op mixes. Same replay-from-seed discipline as the
//!   injector, shared by the wire-protocol torture tests.
//!
//! All three are deterministic and dependency-free; this crate is a
//! dev-dependency of the workspace test suites. The seeded chaos schedules
//! built on it live in `tests/chaos` of the root package (they need the
//! server, which sits above this crate) and run from `tests/faults.rs`:
//! nine seeds in every test run, 240 more in the `#[ignore]`d soak.
//!
//! # Failure-mode matrix
//!
//! What each injected fault must do — the contract those schedules and
//! `tests/faults.rs` hold the storage stack to:
//!
//! | Fault | Detection point | Response | Preserved invariant |
//! |---|---|---|---|
//! | Torn record append (crash mid-write) | Injected append returns short; on reopen, the tail scan finds the partial record | Store flips `ReadOnly` immediately (the in-memory tail is no longer trustworthy); reopen truncates the torn tail | Only unacknowledged bytes are removed; every acked write + proof survives; recovery is deterministic |
//! | Mid-segment silent corruption (bit flip) | Not on the write or cached read path: an explicit `ShardedDb::shard(i).scrub()` (or the server's `SCRUB` admin opcode) re-verifies every sealed record CRC | Segment quarantined into `quarantine/` (evidence kept), intact chunks salvaged into fresh segments, store goes `ReadOnly` when any chunk is unsalvageable | Damaged chunk reads as `ChunkNotFound` (never wrong bytes); all other chunks survive; space accounting drops exactly the lost chunks; reopen is clean |
//! | `ENOSPC` on append | Typed `IoError{kind: NoSpace}` surfaces from the write path | `HealthState::ReadOnly`; writes fail fast with `DbError::ReadOnly`, reads keep serving | Verified reads (and their proofs) unaffected; no partial commit becomes visible |
//! | Transient `EIO` on append/fsync | Typed `IoError{kind: Transient}` | Up to 3 retries with 1/2/4 ms backoff; only exhaustion degrades (`Degraded`, still writable) | Retried op lands exactly once (a retry consumes a fresh injector op, so injected transients clear) |
//! | fsync failure (non-transient) | Group/rotation/per-put fsync returns the typed error | `ReadOnly` fail-stop — after a failed fsync the page-cache state is unknowable, so no further writes are acknowledged | Commits acked before the failure stay readable. Publication contract: a commit whose fsync failed *after* it was published in memory is returned to its caller as an error, and may or may not be visible, now or after a crash; a commit whose append failed is never visible |
//! | Shard death mid-2PC (killed store) | Prepare/commit vote fails on the dead shard | Batch resolves all-or-nothing (decided → redo on live shards, undecided → presumed abort); deployment reports `Degraded`, dead shard `ReadOnly` | Other key ranges keep writing; committed batches stay fully visible; `recover()` races scrub/compact safely |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod failpoint;
pub mod injector;
pub mod rng;

pub use failpoint::{FailMode, FailpointStore};
pub use injector::{FaultInjector, FaultRates};
pub use rng::SeededRng;
