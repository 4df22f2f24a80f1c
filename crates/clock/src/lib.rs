//! Shared time source: milliseconds since an arbitrary origin.
//!
//! Time enters the serving stack in several places — scheduler deadlines,
//! the transport's accept-backoff and drain windows, the delta
//! collection window — and deterministic tests must be able to control all
//! of them **together**. Every layer therefore reads the same [`Clock`]
//! trait object instead of [`std::time::Instant`] directly. [`SystemClock`]
//! is the production implementation; [`ManualClock`] is advanced explicitly
//! by tests and by the `qsync-lab` virtual-time simulation harness.

#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic millisecond clock.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Milliseconds elapsed since the clock's origin.
    fn now_ms(&self) -> u64;
}

/// Wall-clock time since construction.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        SystemClock { origin: Instant::now() }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }
}

/// A clock that only moves when told to — the backbone of deterministic
/// deadline tests and virtual-time whole-server simulations.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by `ms` milliseconds.
    pub fn advance(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::SeqCst);
    }

    /// Set the clock to an absolute time.
    pub fn set(&self, ms: u64) {
        self.now.store(ms, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_moves_only_when_told() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_ms(), 0);
        clock.advance(5);
        clock.advance(7);
        assert_eq!(clock.now_ms(), 12);
        clock.set(3);
        assert_eq!(clock.now_ms(), 3);
    }

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::new();
        let a = clock.now_ms();
        let b = clock.now_ms();
        assert!(b >= a);
    }
}
