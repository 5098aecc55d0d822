//! The AID service benchmark.
//!
//! One command starts in-process `aid_serve` servers on loopback TCP, one
//! after another, drives one of three closed-loop workloads (`cold`,
//! `warm`, `standing`) from two client threads over two connections for a
//! timed window, checks every served result against an in-process
//! recomputation, and prints the end-to-end metrics, or, with
//! `--trace 1`, the per-layer ones. See `README.md` beside this crate for what each workload and
//! metric is for.

pub mod delta;
pub mod layers;
pub mod pin;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod run;
pub mod stats;
pub mod workload;
