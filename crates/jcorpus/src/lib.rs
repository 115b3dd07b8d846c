//! `jcorpus`: a persistent, feedback-driven corpus store.
//!
//! The paper seeds MopFuzzer from JVM regression suites and discards every
//! mutant when a run ends. This crate makes the corpus a real subsystem:
//!
//! * [`Store`] — an on-disk corpus directory (one pretty-printed mjava
//!   source per entry plus a JSONL manifest with stable ids, provenance
//!   and per-entry stats, and a persisted quarantine file shared by all
//!   campaigns over the same store).
//! * [`fingerprint`] — an OBV/coverage fingerprint of the optimization
//!   behaviour a program evokes on a fault-free reference JVM; entries
//!   with equal fingerprints collapse into one (dedup), which also makes
//!   mutant promotion idempotent.
//! * [`PowerScheduler`] — an AFL-style power scheduler assigning each
//!   entry an energy from its historical OBV-delta yield, fault rate and
//!   age (schedule count), replacing fixed round-robin seed rotation.
//!
//! The crate is deliberately independent of `mopfuzzer` (core): promotion
//! policy and oracle logic live in the supervisor; `jcorpus` only stores
//! programs, computes fingerprints, and schedules energies. All scheduling
//! is deterministic given the campaign RNG seed.

pub mod fingerprint;
pub mod fsck;
pub mod lock;
pub mod schedule;
pub mod store;
pub mod vfs;

pub use fingerprint::{
    fingerprint, fingerprint_hex, parse_fingerprint, source_hash, FingerprintOutcome,
};
pub use fsck::{fsck, fsck_with, FsckIssue, FsckIssueKind, FsckReport};
pub use lock::{StoreLock, DEFAULT_LOCK_TIMEOUT, LOCKFILE};
pub use schedule::{energy, PowerScheduler, ENERGY_FLOOR};
pub use store::{read_quarantine_dir, Admission, Entry, EntryStats, Provenance, Store, Tombstone};
pub use vfs::{ChaosError, ChaosPlan, ChaosVfs, RealVfs, Vfs, CRASH_MARKER};
