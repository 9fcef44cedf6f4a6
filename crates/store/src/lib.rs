//! # lbmf-store — a sharded read-mostly KV serving tier built on
//! location-based memory fences
//!
//! The paper's thesis is that asymmetric synchronization patterns — one
//! side hot and fence-free, the other side rare and expensive — deserve
//! an asymmetric fence. A read-mostly serving tier is the canonical such
//! pattern at system scale: millions of lookups bracket a trickle of
//! updates. This crate builds that tier directly on the repository's
//! [`FenceStrategy`](lbmf::strategy::FenceStrategy) axis:
//!
//! * **Reads** are epoch-pinned RCU snapshot lookups. The pin store and
//!   the table-pointer load form exactly the store→load pattern
//!   `l-mfence` targets, so under an asymmetric strategy the entire read
//!   is fence-free and RMW-free — the model-check suite proves both the
//!   safety of the protocol and the *purity* of that fast path.
//! * **Writes** copy-on-write a shard's table — a new directory that
//!   shares every chunk but the one the key lives in, so a put copies
//!   about 8 KiB whatever the shard holds — publish it with one pointer
//!   store, and then pay the secondary's bill: one remote serialization
//!   per registered reader (signal, membarrier, or the symmetric no-op)
//!   before reclaiming the retired snapshot's directory and the one
//!   chunk it no longer shares.
//!
//! The [`workload`] module generates deterministic Zipfian op streams
//! and replays them two ways — real threads on this host, and
//! [`lbmf_des::simulate_kv`] at 64+ simulated cores — so benchmarks can
//! pair a measured run with a projection of the same workload.
//!
//! ```
//! use lbmf::strategy::SignalFence;
//! use lbmf_store::{ReclaimMode, Store};
//! use std::sync::Arc;
//!
//! let store = Arc::new(Store::new(Arc::new(SignalFence::new()), 4, 64, ReclaimMode::Free));
//! store.put(7, 700);
//! let reader = store.handle(); // registers this thread for serialization
//! assert_eq!(reader.get(7), Some(700)); // fence-free fast path
//! assert_eq!(reader.get(8), None);
//! ```

#![warn(missing_docs)]

pub mod health;
pub mod heat;
pub mod microbench;
pub mod shard;
pub mod stats;
pub mod store;
pub mod table;
pub mod workload;

pub use health::{HealthCfg, HealthMonitor, HealthVerdict, Sampler, StuckReader};
pub use heat::{HeatSnapshot, ReaderHeat, ShardLoad};
pub use microbench::ReadLoop;
pub use shard::{ReaderSlot, ReclaimMode, Shard, ShardProbe};
pub use stats::{StoreStats, StoreStatsSnapshot};
pub use store::{shard_index, Store, StoreHandle, WedgedReader};
pub use table::{Table, CHUNK_ENTRIES, EMPTY_KEY, POISON};
pub use workload::{
    build_store, kv_schedule, ops_for_core, project, project_heat, run, Op, WorkloadCfg,
    WorkloadReport,
};
