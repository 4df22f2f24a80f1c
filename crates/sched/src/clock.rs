//! Scheduler time source — re-exported from [`qsync_clock`].
//!
//! The `Clock` seam originally lived here; it now serves the whole stack
//! (scheduler deadlines, transport accept-backoff and drain windows, delta
//! collection window), so the types moved to the dedicated `qsync-clock`
//! crate. This module remains as a compatibility re-export: existing
//! `qsync_sched::clock::{Clock, ManualClock, SystemClock}` paths keep
//! working unchanged.

pub use qsync_clock::{Clock, ManualClock, SystemClock};
