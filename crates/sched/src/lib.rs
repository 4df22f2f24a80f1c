//! # qsync-sched — priority, fairness and deadline-aware job scheduling
//!
//! The plan server's worker pool was strict FIFO: one client flooding slow
//! cold plans starves every other client, and there is no way to express "this
//! request is interactive" or "this answer is useless after 200 ms". This
//! crate provides the generic scheduler the serving layer now runs on:
//!
//! * **Priority classes** ([`Priority`]): `Interactive` > `Batch` >
//!   `Background`. Higher classes are always served first.
//! * **Per-client weighted fair queuing** ([`SchedPolicy::Drr`]): within a
//!   class, clients get deficit-round-robin service — a client flooding the
//!   queue cannot delay other clients' jobs behind its backlog. Client weights
//!   scale the per-round quantum.
//! * **EDF lane**: jobs tagged with a deadline are dispatched
//!   earliest-deadline-first, ahead of the priority classes. Jobs that
//!   complete past their deadline are counted as misses; with
//!   [`SchedConfig::shed_expired`] set, jobs already expired at dispatch time
//!   are handed to the worker flagged [`Dispatch::expired`] so it can answer
//!   without doing the work.
//! * **Cancellation**: queued jobs can be [cancelled](Scheduler::cancel) by
//!   the ticket returned from [`Scheduler::submit`], or by what they carry
//!   ([`Scheduler::cancel_newest_where`], [`Scheduler::cancel_all_where`]) —
//!   the job table is the one record of what is queued, so a caller needs no
//!   side map from its own names to tickets.
//! * **Admission control**: per-class queue caps; a submit over the cap is
//!   rejected immediately ([`Rejected`]) and counted as a shed.
//!
//! Dispatch decisions depend only on queue contents, DRR state and sequence
//! numbers — under a single worker the dispatch order is fully deterministic
//! for a given submit order, which the tests rely on. Time enters only
//! through deadline bookkeeping, via a pluggable [`Clock`] ([`ManualClock`]
//! makes deadline tests deterministic too).
//!
//! The scheduler is generic over the job payload and transport-free: workers
//! are plain threads looping `while let Some(job) = sched.next() { ... }`.
//! [`Scheduler::quiesce`] blocks until no job is queued or running — the
//! serving layer's delta barrier.

#![warn(missing_docs)]

pub mod job;
pub mod scheduler;
pub mod stats;

pub use qsync_clock::{Clock, ManualClock, SystemClock};
pub use job::{JobMeta, Priority};
pub use scheduler::{Dispatch, Rejected, SchedConfig, SchedPolicy, Scheduler, SubmitError};
pub use stats::{ClassStats, SchedStats};
