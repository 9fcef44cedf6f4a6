//! The THE-protocol deque of Cilk-5 (Frigo, Leiserson, Randall; PLDI '98),
//! parameterized over the victim-side fence strategy.
//!
//! The victim owns the **T**ail: `push` appends, `pop` decrements `T`,
//! fences, and checks the **H**ead. A thief takes the deque's lock (the
//! **E**xception in the original is folded into H here, as in later Cilk
//! versions), increments `H`, fences, and checks `T`. Victim and thief thus
//! run exactly the Dekker duality on `(T, H)`:
//!
//! ```text
//! victim pop:   T--; FENCE; if H > T  -> conflict path under lock
//! thief steal:  lock; H++; FENCE; serialize(victim); if H > T -> retreat
//! ```
//!
//! The victim's `FENCE` is the `l-mfence` position: the symmetric runtime
//! (`Symmetric` strategy) pays an `mfence` on **every pop** — the paper's
//! Cilk-5 baseline; the asymmetric runtime (ACilk-5) replaces it with a
//! compiler fence and has the thief remotely serialize the victim instead.

use crate::job::JobCore;
use crate::stats::WorkerStats;
#[allow(unused_imports)]
use lbmf::{trace_event_corr, trace_mint_corr};
use lbmf::hooks::{load_i64, load_ptr, store_i64, store_ptr};
use lbmf::registry::RemoteThread;
use lbmf::strategy::FenceStrategy;
use lbmf::sync::{CachePadded, Mutex};
use std::sync::atomic::{AtomicI64, AtomicPtr, Ordering};
use std::sync::{Arc, OnceLock};

/// Result of a steal attempt.
pub enum Steal<S: FenceStrategy> {
    /// Got a job.
    Success(*mut JobCore<S>),
    /// The deque was empty.
    Empty,
    /// The deque was locked by another thief; try elsewhere.
    Retry,
}

/// A THE-protocol work-stealing deque.
pub struct TheDeque<S: FenceStrategy> {
    /// `T`: next slot to push; owned by the victim.
    tail: CachePadded<AtomicI64>,
    /// `H`: next slot to steal; bumped by thieves under the lock.
    head: CachePadded<AtomicI64>,
    /// Thief-side lock (also taken by the victim's conflict path).
    lock: Mutex<()>,
    buf: Box<[AtomicPtr<JobCore<S>>]>,
    mask: i64,
    /// The owning worker's thread handle, for remote serialization.
    owner: OnceLock<RemoteThread>,
    strategy: Arc<S>,
}

// SAFETY: all shared state is atomics or lock-protected; the raw job
// pointers are managed by the deque protocol (see `job.rs`).
unsafe impl<S: FenceStrategy> Send for TheDeque<S> {}
unsafe impl<S: FenceStrategy> Sync for TheDeque<S> {}

impl<S: FenceStrategy> TheDeque<S> {
    /// A deque with capacity `2^log2_capacity` entries (spawn depth bound).
    pub fn new(strategy: Arc<S>, log2_capacity: u32) -> Self {
        let cap = 1usize << log2_capacity;
        let buf = (0..cap)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        TheDeque {
            tail: CachePadded::new(AtomicI64::new(0)),
            head: CachePadded::new(AtomicI64::new(0)),
            lock: Mutex::new(()),
            buf,
            mask: (cap - 1) as i64,
            owner: OnceLock::new(),
            strategy,
        }
    }

    /// Bind the owning worker's thread (once, at worker startup, before
    /// any push).
    pub fn set_owner(&self, owner: RemoteThread) {
        self.owner
            .set(owner)
            .unwrap_or_else(|_| panic!("deque owner set twice"));
    }

    #[inline]
    fn slot(&self, idx: i64) -> &AtomicPtr<JobCore<S>> {
        &self.buf[(idx & self.mask) as usize]
    }

    /// Number of queued jobs (approximate outside the owner).
    pub fn len(&self) -> usize {
        let t = load_i64(&self.tail, Ordering::Relaxed);
        let h = load_i64(&self.head, Ordering::Relaxed);
        (t - h).max(0) as usize
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner: push a job (the spawn path — no fence at all, as in Cilk-5).
    pub fn push(&self, job: *mut JobCore<S>, stats: &WorkerStats) {
        let t = load_i64(&self.tail, Ordering::Relaxed);
        let h = load_i64(&self.head, Ordering::Relaxed);
        assert!(
            t - h <= self.mask,
            "deque overflow: spawn depth exceeded capacity {}",
            self.mask + 1
        );
        store_ptr(self.slot(t), job, Ordering::Relaxed);
        // Publish the slot before the new tail (thieves read tail Acquire).
        store_i64(&self.tail, t + 1, Ordering::Release);
        WorkerStats::bump(&stats.pushes);
    }

    /// Owner: pop the most recently pushed job. This is the hot path whose
    /// fence the paper's ACilk-5 removes.
    pub fn pop(&self, stats: &WorkerStats) -> Option<*mut JobCore<S>> {
        let t = load_i64(&self.tail, Ordering::Relaxed) - 1;
        store_i64(&self.tail, t, Ordering::Relaxed); // T--
        self.strategy.primary_fence(); // the l-mfence position
        let h = load_i64(&self.head, Ordering::Acquire);
        if h > t {
            // Possible conflict with a thief: restore T and retry under
            // the lock, where H is stable.
            store_i64(&self.tail, t + 1, Ordering::Relaxed);
            WorkerStats::bump(&stats.pop_conflicts);
            let _guard = self.lock.lock();
            let t = load_i64(&self.tail, Ordering::Relaxed) - 1;
            store_i64(&self.tail, t, Ordering::Relaxed);
            // Under the lock no thief can move H; a full fence makes the
            // decrement visible before we conclude (cold path: cheap).
            lbmf::fence::full_fence();
            let h = load_i64(&self.head, Ordering::Acquire);
            if h > t {
                store_i64(&self.tail, t + 1, Ordering::Relaxed);
                return None;
            }
            WorkerStats::bump(&stats.pops);
            return Some(load_ptr(self.slot(t), Ordering::Relaxed));
        }
        WorkerStats::bump(&stats.pops);
        Some(load_ptr(self.slot(t), Ordering::Relaxed))
    }

    /// Thief: try to steal the oldest job. Every attempt pays the
    /// secondary-side cost: a fence plus a remote serialization of the
    /// victim (a no-op under the symmetric strategy).
    ///
    /// The whole attempt is one causal chain: the `steal-attempt`, the
    /// victim-serialization phases it triggers, and (on success) the
    /// `steal-success` all share one correlation id, so a trace shows
    /// *which* steal paid *which* serialization round trip.
    pub fn steal(&self, stats: &WorkerStats) -> Steal<S> {
        let guard = match self.lock.try_lock() {
            Some(g) => g,
            None => return Steal::Retry,
        };
        WorkerStats::bump(&stats.steal_attempts);
        let corr = trace_mint_corr!();
        trace_event_corr!(StealAttempt, self as *const _ as usize, corr);
        let h = load_i64(&self.head, Ordering::Relaxed);
        store_i64(&self.head, h + 1, Ordering::Relaxed); // H++
        self.strategy.secondary_fence();
        if let Some(owner) = self.owner.get() {
            // Location-based serialization: force the victim's (possibly
            // buffered) T decrement out so the comparison below is sound.
            self.strategy.serialize_remote_corr(owner, corr);
        }
        let t = load_i64(&self.tail, Ordering::Acquire);
        if h + 1 > t {
            store_i64(&self.head, h, Ordering::Relaxed); // retreat
            drop(guard);
            return Steal::Empty;
        }
        let job = load_ptr(self.slot(h), Ordering::Relaxed);
        drop(guard);
        WorkerStats::bump(&stats.steals);
        trace_event_corr!(StealSuccess, self as *const _ as usize, corr);
        Steal::Success(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbmf::strategy::{SignalFence, Symmetric};

    fn core(n: usize) -> *mut JobCore<Symmetric> {
        n as *mut JobCore<Symmetric>
    }

    #[test]
    fn push_pop_lifo() {
        let d: TheDeque<Symmetric> = TheDeque::new(Arc::new(Symmetric::new()), 4);
        let stats = WorkerStats::default();
        d.push(core(1), &stats);
        d.push(core(2), &stats);
        d.push(core(3), &stats);
        assert_eq!(d.len(), 3);
        assert_eq!(d.pop(&stats), Some(core(3)));
        assert_eq!(d.pop(&stats), Some(core(2)));
        assert_eq!(d.pop(&stats), Some(core(1)));
        assert_eq!(d.pop(&stats), None);
        assert_eq!(stats.pops.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn steal_fifo_from_other_end() {
        let d: TheDeque<Symmetric> = TheDeque::new(Arc::new(Symmetric::new()), 4);
        let stats = WorkerStats::default();
        d.push(core(1), &stats);
        d.push(core(2), &stats);
        match d.steal(&stats) {
            Steal::Success(p) => assert_eq!(p, core(1)),
            _ => panic!("steal failed"),
        }
        assert_eq!(d.pop(&stats), Some(core(2)));
        assert_eq!(d.pop(&stats), None);
        match d.steal(&stats) {
            Steal::Empty => {}
            _ => panic!("expected empty"),
        }
    }

    #[test]
    fn interleaved_push_pop_steal_accounts_for_all_jobs() {
        let d: TheDeque<Symmetric> = TheDeque::new(Arc::new(Symmetric::new()), 6);
        let stats = WorkerStats::default();
        let mut seen = std::collections::HashSet::new();
        let mut next = 1usize;
        for round in 0..10 {
            for _ in 0..4 {
                d.push(core(next), &stats);
                next += 1;
            }
            if round % 2 == 0 {
                if let Steal::Success(p) = d.steal(&stats) {
                    assert!(seen.insert(p as usize));
                }
            }
            while let Some(p) = d.pop(&stats) {
                assert!(seen.insert(p as usize));
            }
        }
        assert_eq!(seen.len(), next - 1, "every job seen exactly once");
    }

    #[test]
    fn concurrent_victim_thief_no_duplication_no_loss() {
        // One victim pushes/pops, several thieves steal; every job must be
        // obtained exactly once across all parties.
        use std::sync::atomic::AtomicU64;
        let strategy = Arc::new(SignalFence::new());
        let d: Arc<TheDeque<SignalFence>> = Arc::new(TheDeque::new(strategy, 16));
        let stolen = Arc::new(AtomicU64::new(0));
        let popped = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let thieves_done = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        const JOBS: usize = 20_000;
        const THIEVES: usize = 2;

        let mut thieves = Vec::new();
        for _ in 0..THIEVES {
            let d = d.clone();
            let stolen = stolen.clone();
            let stop = stop.clone();
            let done = thieves_done.clone();
            thieves.push(std::thread::spawn(move || {
                let stats = WorkerStats::default();
                let mut sum = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    match d.steal(&stats) {
                        Steal::Success(p) => sum += p as u64,
                        Steal::Empty => std::thread::yield_now(),
                        Steal::Retry => {}
                    }
                }
                stolen.fetch_add(sum, Ordering::Relaxed);
                done.fetch_add(1, Ordering::Release);
            }));
        }

        let victim = {
            let d = d.clone();
            let popped = popped.clone();
            let stop = stop.clone();
            let thieves_done = thieves_done.clone();
            std::thread::spawn(move || {
                let reg = lbmf::registry::register_current_thread();
                d.set_owner(reg.remote());
                let stats = WorkerStats::default();
                let mut sum = 0u64;
                for j in 1..=JOBS {
                    d.push(j as *mut JobCore<SignalFence>, &stats);
                    // Pop roughly half back immediately.
                    if j % 2 == 0 {
                        if let Some(p) = d.pop(&stats) {
                            sum += p as u64;
                        }
                    }
                }
                while let Some(p) = d.pop(&stats) {
                    sum += p as u64;
                }
                popped.fetch_add(sum, Ordering::Relaxed);
                // Keep this thread (and its signal registration) alive
                // until all thieves stop stealing: signaling an exited
                // pthread is undefined behaviour.
                stop.store(true, Ordering::Relaxed);
                lbmf::fence::spin_until(|| thieves_done.load(Ordering::Acquire) == THIEVES);
            })
        };

        victim.join().unwrap();
        for t in thieves {
            t.join().unwrap();
        }
        let total = stolen.load(Ordering::Relaxed) + popped.load(Ordering::Relaxed);
        let expected: u64 = (1..=JOBS as u64).sum();
        assert_eq!(total, expected, "jobs lost or duplicated");
    }

    #[test]
    #[should_panic(expected = "deque overflow")]
    fn overflow_panics() {
        let d: TheDeque<Symmetric> = TheDeque::new(Arc::new(Symmetric::new()), 2);
        let stats = WorkerStats::default();
        for i in 0..5 {
            d.push(core(i + 1), &stats);
        }
    }
}
