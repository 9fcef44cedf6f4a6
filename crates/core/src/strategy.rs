//! Fence strategies: program-based, and two software realizations of
//! location-based memory fences.
//!
//! A [`FenceStrategy`] packages the three ordering actions the asymmetric
//! protocols need:
//!
//! * the **primary** thread's store→load ordering point — where the paper
//!   places `l-mfence` (Figure 3(a), line K1);
//! * the **secondary** thread's own program-based fence (line J2);
//! * the secondary's **remote serialization** of the primary — the paper's
//!   "T2 enforces the fence onto T1".
//!
//! | strategy | primary pays | secondary pays | models |
//! |---|---|---|---|
//! | [`Symmetric`] | `mfence` | `mfence` | the baseline (Cilk-5 / SRW) |
//! | [`SignalFence`] | compiler fence | `mfence` + signal round trip (~10⁴ cycles) | the paper's software prototype |
//! | [`MembarrierFence`] | compiler fence | `mfence` + `membarrier(2)` (~10³ cycles) | kernel-assisted asymmetric fence; brackets the LE/ST hardware from above |
//! | [`NoFence`] | compiler fence | `mfence`, **no serialization** | the broken Figure-1 protocol, for demonstrations |

use crate::fence::{compiler_fence_only, full_fence};
use crate::registry::RemoteThread;
use crate::stats::FenceStats;
#[allow(unused_imports)]
use crate::trace::{trace_event, trace_span_end_corr, trace_span_start};
use crate::{trace_event_corr, trace_mint_corr};

/// Ordering actions for one side of an asymmetric synchronization pattern.
///
/// Contract required from implementations (the paper's Definition 2, in
/// software terms): after `serialize_remote(t)` returns, every store that
/// thread `t` committed before the serialization point is visible to the
/// caller, provided `t` brackets its own fast path with `primary_fence()`
/// at the store→load position.
pub trait FenceStrategy: Send + Sync + 'static {
    /// The primary's store→load ordering point (the `l-mfence` position).
    fn primary_fence(&self);

    /// The secondary's own program-based fence (always a real fence: the
    /// asymmetry only ever removes the *primary's* cost).
    fn secondary_fence(&self) {
        full_fence();
        FenceStats::bump(&self.stats().secondary_full_fences);
        trace_event!(SecondaryFence);
    }

    /// Force `target` to serialize its instruction stream. Mints a fresh
    /// correlation id for the round trip's causal span (see
    /// [`FenceStrategy::serialize_remote_corr`]).
    fn serialize_remote(&self, target: &RemoteThread) {
        self.serialize_remote_corr(target, trace_mint_corr!());
    }

    /// [`FenceStrategy::serialize_remote`] under a caller-supplied causal
    /// correlation id, so a larger operation (a deque steal) can link the
    /// serialization's phase events into its own chain. `corr = 0` means
    /// "no chain". Strategies whose serialization is a no-op (symmetric,
    /// the broken control) ignore the id — they produce no round trip to
    /// attribute.
    fn serialize_remote_corr(&self, target: &RemoteThread, corr: u64);

    /// Short machine-readable name for reports.
    fn name(&self) -> &'static str;

    /// Whether the primary path avoids the hardware fence.
    fn is_asymmetric(&self) -> bool;

    /// Activity counters.
    fn stats(&self) -> &FenceStats;
}

/// Delegation through shared ownership: an `Arc<S>` (including
/// `Arc<dyn FenceStrategy>`) is itself a strategy. This is what lets a
/// generic consumer like `lbmf-store` pick its strategy at runtime —
/// `Store<Arc<dyn FenceStrategy>>` — while statically-typed users keep
/// the monomorphized fast path. Every method forwards, so an
/// implementation's overrides of the defaulted methods are preserved.
impl<S: FenceStrategy + ?Sized> FenceStrategy for std::sync::Arc<S> {
    fn primary_fence(&self) {
        (**self).primary_fence()
    }

    fn secondary_fence(&self) {
        (**self).secondary_fence()
    }

    fn serialize_remote(&self, target: &RemoteThread) {
        (**self).serialize_remote(target)
    }

    fn serialize_remote_corr(&self, target: &RemoteThread, corr: u64) {
        (**self).serialize_remote_corr(target, corr)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn is_asymmetric(&self) -> bool {
        (**self).is_asymmetric()
    }

    fn stats(&self) -> &FenceStats {
        (**self).stats()
    }
}

// ---------------------------------------------------------------------
// Symmetric (program-based, the baseline)
// ---------------------------------------------------------------------

/// Program-based fences on both sides; remote serialization is a no-op
/// because the primary already serialized itself.
#[derive(Debug, Default)]
pub struct Symmetric {
    stats: FenceStats,
}

impl Symmetric {
    /// A symmetric (program-based) strategy with fresh counters.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FenceStrategy for Symmetric {
    fn primary_fence(&self) {
        full_fence();
        FenceStats::bump(&self.stats.primary_full_fences);
        trace_event!(PrimaryFullFence);
    }

    fn serialize_remote_corr(&self, target: &RemoteThread, _corr: u64) {
        FenceStats::bump(&self.stats.serializations_requested);
        trace_event!(SerializeRequest, target.key());
        // Nothing to do: the primary executed a real fence itself (and
        // with no round trip there is no chain to correlate).
    }

    fn name(&self) -> &'static str {
        "symmetric-mfence"
    }

    fn is_asymmetric(&self) -> bool {
        false
    }

    fn stats(&self) -> &FenceStats {
        &self.stats
    }
}

// ---------------------------------------------------------------------
// Signal-based software prototype (the paper's Section 5 implementation)
// ---------------------------------------------------------------------

/// The paper's software prototype: the primary runs fence-free (compiler
/// fence only); the secondary serializes it by sending a POSIX signal and
/// spinning for the handler's acknowledgment. Signal delivery enters the
/// kernel on the primary's CPU, draining its store buffer.
#[derive(Debug, Default)]
pub struct SignalFence {
    stats: FenceStats,
}

impl SignalFence {
    /// A signal-based strategy with fresh counters.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FenceStrategy for SignalFence {
    fn primary_fence(&self) {
        compiler_fence_only();
        FenceStats::bump(&self.stats.primary_compiler_fences);
        trace_event!(PrimaryFence);
    }

    fn serialize_remote_corr(&self, target: &RemoteThread, corr: u64) {
        FenceStats::bump(&self.stats.serializations_requested);
        trace_event_corr!(SerializeRequest, target.key(), corr);
        if target.serialize_with_corr(corr) {
            FenceStats::bump(&self.stats.serializations_delivered);
        }
    }

    fn name(&self) -> &'static str {
        "lbmf-signal"
    }

    fn is_asymmetric(&self) -> bool {
        true
    }

    fn stats(&self) -> &FenceStats {
        &self.stats
    }
}

// ---------------------------------------------------------------------
// membarrier(2): the modern kernel-assisted asymmetric fence
// ---------------------------------------------------------------------

use crate::sys::{
    membarrier, MEMBARRIER_CMD_PRIVATE_EXPEDITED, MEMBARRIER_CMD_QUERY,
    MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED,
};

/// Kernel-assisted asymmetric fence: `membarrier(PRIVATE_EXPEDITED)` makes
/// every thread of the process execute a memory barrier before the call
/// returns, at IPI cost — orders of magnitude cheaper than a signal
/// handshake, though still above the paper's projected LE/ST cost (which
/// bothers only the one processor holding the link).
#[derive(Debug)]
pub struct MembarrierFence {
    stats: FenceStats,
}

impl MembarrierFence {
    /// Probe for kernel support and register the process. Returns `None`
    /// when the kernel lacks `MEMBARRIER_CMD_PRIVATE_EXPEDITED`.
    pub fn try_new() -> Option<Self> {
        let supported = membarrier(MEMBARRIER_CMD_QUERY);
        if supported < 0 {
            return None;
        }
        if supported & (MEMBARRIER_CMD_PRIVATE_EXPEDITED as std::os::raw::c_long) == 0 {
            return None;
        }
        if membarrier(MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED) != 0 {
            return None;
        }
        Some(MembarrierFence {
            stats: FenceStats::new(),
        })
    }
}

impl FenceStrategy for MembarrierFence {
    fn primary_fence(&self) {
        compiler_fence_only();
        FenceStats::bump(&self.stats.primary_compiler_fences);
        trace_event!(PrimaryFence);
    }

    fn serialize_remote_corr(&self, target: &RemoteThread, corr: u64) {
        FenceStats::bump(&self.stats.serializations_requested);
        trace_event_corr!(SerializeRequest, target.key(), corr);
        let start = trace_span_start!();
        let rc = membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED);
        debug_assert_eq!(rc, 0, "membarrier failed after successful registration");
        FenceStats::bump(&self.stats.serializations_delivered);
        // The kernel IPI has no observable interior phases; the chain is
        // the request bookended by the completed round trip.
        trace_event_corr!(SerializeAckObserved, target.key(), corr);
        trace_span_end_corr!(SerializeDeliver, target.key(), start, corr);
    }

    fn name(&self) -> &'static str {
        "lbmf-membarrier"
    }

    fn is_asymmetric(&self) -> bool {
        true
    }

    fn stats(&self) -> &FenceStats {
        &self.stats
    }
}

// ---------------------------------------------------------------------
// NoFence: the deliberately broken Figure-1 protocol
// ---------------------------------------------------------------------

/// No hardware ordering at all on the primary side and no remote
/// serialization: the incorrect Figure-1 idiom. Exists so tests and
/// examples can demonstrate *why* the fence is needed. Never use this for
/// actual synchronization.
#[derive(Debug, Default)]
pub struct NoFence {
    stats: FenceStats,
}

impl NoFence {
    /// The broken strategy (demonstrations only).
    pub fn new() -> Self {
        Self::default()
    }
}

impl FenceStrategy for NoFence {
    fn primary_fence(&self) {
        compiler_fence_only();
        FenceStats::bump(&self.stats.primary_compiler_fences);
        trace_event!(PrimaryFence);
    }

    fn serialize_remote_corr(&self, target: &RemoteThread, _corr: u64) {
        FenceStats::bump(&self.stats.serializations_requested);
        trace_event!(SerializeRequest, target.key());
    }

    fn name(&self) -> &'static str {
        "none (broken)"
    }

    fn is_asymmetric(&self) -> bool {
        true
    }

    fn stats(&self) -> &FenceStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::register_current_thread;

    #[test]
    fn symmetric_counts_primary_fences() {
        let s = Symmetric::new();
        s.primary_fence();
        s.primary_fence();
        s.secondary_fence();
        let snap = s.stats().snapshot();
        assert_eq!(snap.primary_full_fences, 2);
        assert_eq!(snap.secondary_full_fences, 1);
        assert_eq!(snap.fences_avoided(), 0);
        assert!(!s.is_asymmetric());
    }

    #[test]
    fn signal_fence_roundtrip_counts() {
        let s = SignalFence::new();
        s.primary_fence();
        assert_eq!(s.stats().snapshot().primary_compiler_fences, 1);
        assert!(s.is_asymmetric());

        // Serialize a live helper thread.
        let (tx, rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::spawn(move || {
            let reg = register_current_thread();
            tx.send(reg.remote()).unwrap();
            done_rx.recv().unwrap();
        });
        let remote = rx.recv().unwrap();
        s.serialize_remote(&remote);
        let snap = s.stats().snapshot();
        assert_eq!(snap.serializations_requested, 1);
        assert_eq!(snap.serializations_delivered, 1);
        done_tx.send(()).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn membarrier_roundtrip_when_kernel_supports_it() {
        // Sandboxes may filter the syscall; skip (loudly) rather than fail
        // — the harnesses fall back to SignalFence in that case.
        let Some(m) = MembarrierFence::try_new() else {
            eprintln!("skipping: membarrier PRIVATE_EXPEDITED unsupported here");
            return;
        };
        let reg = register_current_thread();
        m.serialize_remote(&reg.remote());
        assert_eq!(m.stats().snapshot().serializations_delivered, 1);
    }

    #[test]
    fn arc_dyn_strategy_delegates_everything() {
        use std::sync::Arc;
        let erased: Arc<dyn FenceStrategy> = Arc::new(SignalFence::new());
        erased.primary_fence();
        erased.secondary_fence();
        assert_eq!(erased.name(), "lbmf-signal");
        assert!(erased.is_asymmetric());
        let snap = erased.stats().snapshot();
        assert_eq!(snap.primary_compiler_fences, 1);
        assert_eq!(snap.secondary_full_fences, 1);

        // Generic consumers see the Arc itself as the strategy.
        fn fence_twice<S: FenceStrategy>(s: &S) {
            s.primary_fence();
            s.primary_fence();
        }
        fence_twice(&erased);
        assert_eq!(erased.stats().snapshot().primary_compiler_fences, 3);

        // And a no-op serialization still routes through the impl.
        let sym: Arc<dyn FenceStrategy> = Arc::new(Symmetric::new());
        let reg = register_current_thread();
        sym.serialize_remote(&reg.remote());
        assert_eq!(sym.stats().snapshot().serializations_requested, 1);
    }

    #[test]
    fn nofence_does_nothing_but_count() {
        let s = NoFence::new();
        s.primary_fence();
        let reg = register_current_thread();
        s.serialize_remote(&reg.remote());
        let snap = s.stats().snapshot();
        assert_eq!(snap.serializations_requested, 1);
        assert_eq!(snap.serializations_delivered, 0);
    }
}
