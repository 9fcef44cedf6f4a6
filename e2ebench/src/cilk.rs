//! `cilk-fork-join`: the ACilk-5 work-stealing scheduler on two workers,
//! running `Kernel::Fib` and `Kernel::Cilksort` at `Scale::Small` in a
//! seeded order, three `fib` runs in four.

use crate::harness::{self, tsc, Clock, Latency, Samples, SpanLog};
use crate::EndToEnd;
use lbmf::strategy::{FenceStrategy, SignalFence};
use lbmf_cilk::bench::{sort, Kernel, Scale};
use lbmf_cilk::{RuntimeStats, Scheduler};
use lbmf_prng::{Rng, SplitMix64};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "cilk-fork-join";

/// `fib(n)` at `Scale::Small`.
pub const FIB_N: u64 = 27;

/// Keys `cilksort` sorts at `Scale::Small`.
pub const CILKSORT_N: usize = 2_000_000;

/// Length of the seeded kernel schedule (replayed cyclically).
pub const SCHEDULE_LEN: usize = 256;

/// Set-ups timed per phase.
pub const SETUPS: usize = 5;

/// The kernels this workload runs, in report order.
pub const KERNELS: [Kernel; 2] = [Kernel::Fib, Kernel::Cilksort];

/// The kernel order under `seed`: blocks of four runs, three `fib` and
/// one `cilksort` at a seeded place in each block, so every stretch of a
/// run keeps the same mix.
pub fn schedule(seed: u64) -> Vec<Kernel> {
    let mut rng = SplitMix64::new(seed ^ 0xC11C_5EED);
    (0..SCHEDULE_LEN / 4)
        .flat_map(|_| {
            let sort_at = rng.bounded_u64(4);
            (0..4).map(move |i| {
                if i == sort_at {
                    Kernel::Cilksort
                } else {
                    Kernel::Fib
                }
            })
        })
        .collect()
}

/// Reference checksum of `kernel`, computed without the scheduler:
/// `fib` iteratively, `cilksort` as the standard library's sort of the
/// same input under the kernel's digest (FNV-1a over 1024 evenly spaced
/// keys, folded with the length).
pub fn reference(kernel: Kernel) -> u64 {
    match kernel {
        Kernel::Fib => (0..FIB_N).fold((0u64, 1u64), |(a, b), _| (b, a + b)).0,
        Kernel::Cilksort => {
            let mut v = sort::make_input(CILKSORT_N);
            v.sort_unstable();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &x in v.iter().step_by((v.len() / 1024).max(1)) {
                h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
            }
            h ^ v.len() as u64
        }
        other => panic!("no reference for {}", other.name()),
    }
}

/// Scheduler counters of one kernel, summed over its runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Runs.
    pub runs: u64,
    /// Summed `run_timed` wall time, s.
    pub seconds: f64,
    /// Deque pushes (= spawns).
    pub pushes: u64,
    /// Owner pops that found a thief on the same task.
    pub pop_conflicts: u64,
    /// Steal attempts.
    pub steal_attempts: u64,
    /// Successful steals.
    pub steals: u64,
    /// Remote serializations requested by thieves.
    pub serializations: u64,
    /// `lbmf-trace` events appended (traced runs only).
    pub trace_events: u64,
}

impl KernelStats {
    fn add(&mut self, before: &RuntimeStats, after: &RuntimeStats, elapsed: Duration, events: u64) {
        self.runs += 1;
        self.seconds += elapsed.as_secs_f64();
        self.pushes += after.pushes - before.pushes;
        self.pop_conflicts += after.pop_conflicts - before.pop_conflicts;
        self.steal_attempts += after.steal_attempts - before.steal_attempts;
        self.steals += after.steals - before.steals;
        self.serializations +=
            after.fences.serializations_requested - before.fences.serializations_requested;
        self.trace_events += events;
    }
}

/// A measured fork-join phase.
pub struct Run {
    /// End-to-end figures (common call = `fib` run, rare call =
    /// `cilksort` run).
    pub e2e: EndToEnd,
    /// Remote serializations requested but not delivered, from the pool's
    /// start until it was shut down after the phase.
    pub undelivered: u64,
    /// Counters per kernel, in [`KERNELS`] order.
    pub kernels: [KernelStats; 2],
    /// Recorded spans (traced runs only).
    pub spans: Option<SpanLog>,
}

/// Start a pool of [`harness::THREADS`] workers on `strategy`; it is up
/// once a worker has taken a job.
pub fn start_pool(strategy: Arc<SignalFence>) -> Scheduler<SignalFence> {
    let sched = Scheduler::new(harness::THREADS, strategy);
    sched.run(|_| ());
    sched
}

/// Start the pool (timed, `setups` times), then run the seeded kernel
/// schedule for `seconds`.
pub fn run(seed: u64, seconds: f64, setups: usize, traced: bool, clock: &Clock) -> Run {
    let order = schedule(seed);
    let refs = KERNELS.map(reference);
    let mut setup_s = Vec::with_capacity(setups);
    let mut pool = None;
    for _ in 0..setups.max(1) {
        drop(pool.take());
        let strategy = Arc::new(SignalFence::new());
        let t0 = Instant::now();
        pool = Some((start_pool(strategy.clone()), strategy));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (sched, strategy) = pool.expect("at least one set-up");

    let mut lat = [
        Samples::with_capacity(1 << 12),
        Samples::with_capacity(1 << 12),
    ];
    let mut kernels = [KernelStats::default(); 2];
    let mut spans = traced.then(|| SpanLog::new(harness::THREADS as u32, NAME, 1 << 14));
    let root = spans.as_mut().map_or(0, SpanLog::open);
    let t_root = tsc();
    let mut failed = 0u64;
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    for &kernel in order.iter().cycle() {
        if Instant::now() >= until {
            break;
        }
        let k = KERNELS
            .iter()
            .position(|&x| x == kernel)
            .expect("scheduled kernel");
        let before = sched.stats();
        let events_before = if traced { harness::trace_totals().0 } else { 0 };
        let a = tsc();
        let timed = kernel.run_timed(&sched, Scale::Small);
        let b = tsc();
        let events = if traced {
            harness::trace_totals().0 - events_before
        } else {
            0
        };
        kernels[k].add(&before, &sched.stats(), timed.elapsed, events);
        lat[k].push((clock.ticks_per_ns() * timed.elapsed.as_nanos() as f64) as u64);
        if let Some(log) = spans.as_mut() {
            log.leaf(
                root,
                if k == 0 { "cilk.fib" } else { "cilk.cilksort" },
                a,
                b,
            );
        }
        failed += u64::from(timed.checksum != refs[k]);
        harness::account(1);
    }
    let elapsed = start.elapsed();
    let peak_rss_mib = harness::peak_rss_mib();
    if let Some(log) = spans.as_mut() {
        log.close(root, 0, "cilk.loop", t_root, tsc());
    }
    Run {
        e2e: EndToEnd {
            setups: setup_s,
            elapsed_s: elapsed.as_secs_f64(),
            window_rates: Vec::new(),
            peak_rss_mib,
            common_calls: kernels[0].runs,
            rare_calls: kernels[1].runs,
            common: Latency::of([&lat[0]], clock),
            rare: Latency::of([&lat[1]], clock),
            failed,
        },
        undelivered: {
            // Idle workers keep attempting steals, each a serialization:
            // the counters are only consistent once the pool is down.
            drop(sched);
            let f = strategy.stats().snapshot();
            f.serializations_requested - f.serializations_delivered
        },
        kernels,
        spans,
    }
}
