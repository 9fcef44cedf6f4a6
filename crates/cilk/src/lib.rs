//! # lbmf-cilk — a work-stealing runtime with location-based fences
//!
//! A miniature Cilk-5: `P` workers, per-worker THE-protocol deques, and a
//! `join` fork-join primitive. The victim/thief handshake in the deque is
//! the Dekker-duality instance the paper's ACilk-5 experiment modifies
//! (Section 5): the victim's per-`pop` fence — executed on **every**
//! spawn-return in the original Cilk-5 — is replaced by a location-based
//! fence, remotely enforced by thieves on each steal attempt.
//!
//! Instantiate with:
//!
//! * [`lbmf::strategy::Symmetric`] → the Cilk-5 baseline (mfence per pop);
//! * [`lbmf::strategy::SignalFence`] → ACilk-5 with the paper's
//!   signal-based software prototype;
//! * [`lbmf::strategy::MembarrierFence`] → ACilk-5 with the cheaper
//!   kernel-assisted asymmetric fence.
//!
//! The [`mod@bench`] module carries the twelve Figure-4 benchmark kernels.
//!
//! ```
//! use lbmf_cilk::Scheduler;
//! use lbmf::strategy::SignalFence;
//! use std::sync::Arc;
//!
//! let pool = Scheduler::new(2, Arc::new(SignalFence::new()));
//! let sum = pool.run(|ctx| {
//!     let (a, b) = ctx.join(|_| 1 + 1, |_| 2 + 2);
//!     a + b
//! });
//! assert_eq!(sum, 6);
//! ```

#![warn(missing_docs)]

pub mod bench;
pub mod deque;
pub mod job;
pub mod par;
pub mod scheduler;
pub mod scope;
pub mod stats;

pub use scheduler::{Scheduler, WorkerCtx};
pub use scope::Scope;
pub use stats::RuntimeStats;
