//! # qsync-bench — experiment harness regenerating every table and figure of the paper
//!
//! Each module under [`experiments`] computes one table/figure as a plain data structure
//! with a `Display` implementation; the `reproduce` binary prints them and writes
//! `experiment_results.json`. Performance claims rest on `qsync_benchmark/`, not on
//! this crate.

#![warn(missing_docs)]

pub mod experiments;

pub use experiments::*;
