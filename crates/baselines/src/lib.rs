//! # chc-baselines
//!
//! The systems the CHC paper compares against, plus a standalone single-NF
//! runner used by the per-figure benchmark harnesses:
//!
//! * [`single_nf`] — drives one NF over a trace under any externalization
//!   mode (T / EO / EO+C / EO+C+NA) with the same cost and worker model the
//!   chain uses; produces the per-packet latency distribution and throughput
//!   of Figures 8 and 10.
//! * [`opennf`] — a behavioural model of OpenNF's controller-mediated state
//!   operations: loss-free `move()` that copies per-flow state through the
//!   controller, and strongly consistent shared-state updates in which the
//!   controller forwards every packet to every instance and waits for ACKs
//!   (Figure 11, R2/R3 comparisons).
//! * [`ftmb`] — a behavioural model of FTMB's periodic checkpointing: packet
//!   processing stalls for the checkpoint duration at every checkpoint
//!   interval, inflating tail latency (Figure 12). The paper itself emulates
//!   FTMB the same way (5000 µs pause every 200 ms).
//! * [`statelessnf`] — StatelessNF-style external state accessed with a
//!   lock / read-modify-write round-trip pair per operation instead of CHC's
//!   offloaded operations (the §7.1 "operation offloading" comparison).
//!
//! These models implement exactly the mechanisms the paper charges the
//! baselines for; none of the original codebases are available, and the
//! numbers the paper reports for them are themselves partially emulated.

pub mod ftmb;
pub mod opennf;
pub mod single_nf;
pub mod statelessnf;

pub use ftmb::FtmbModel;
pub use opennf::OpenNfModel;
pub use single_nf::{run_single_nf, sweep_modes, SingleNfRun};
pub use statelessnf::StatelessNfModel;
