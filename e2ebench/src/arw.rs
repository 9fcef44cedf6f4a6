//! `arw-read-mostly`: the asymmetric reader-writer lock (plain ARW, spin
//! window 0) guarding a 16-word array that holds one generation.
//!
//! Both threads register as readers. A read section checks that every
//! word holds the same generation; a write section bumps all of them.
//! Each thread does one write section per [`WRITE_EVERY`] calls, at a
//! position inside each block drawn from `SplitMix64`.

use crate::harness::{self, tsc, Clock, Ctl, Latency, Samples, SpanLog};
use crate::{EndToEnd, SAMPLE_EVERY, STREAM_OPS};
use lbmf::arw::AsymRwLock;
use lbmf::stats::FenceStatsSnapshot;
use lbmf::strategy::{FenceStrategy, SignalFence};
use lbmf_prng::{Rng, SplitMix64};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "arw-read-mostly";

/// Words in the guarded array.
pub const WORDS: usize = 16;

/// Calls per write section, per thread.
pub const WRITE_EVERY: usize = 1000;

/// Set-ups timed per phase.
pub const SETUPS: usize = 5;

/// The lock and the data it guards.
pub struct Guarded {
    /// The lock under test.
    pub lock: Arc<AsymRwLock<SignalFence>>,
    /// One generation, written only inside write sections.
    pub words: [AtomicU64; WORDS],
}

/// Positions (call indices within one stream cycle of [`STREAM_OPS`]) of
/// worker `worker`'s write sections under `seed`, ascending: one per
/// block of [`WRITE_EVERY`] calls.
pub fn write_positions(seed: u64, worker: usize) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed ^ (worker as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..STREAM_OPS / WRITE_EVERY)
        .map(|block| (block * WRITE_EVERY) as u32 + rng.bounded_u64(WRITE_EVERY as u64) as u32)
        .collect()
}

/// What one worker did in the measured phase.
pub struct Worker {
    start: Instant,
    end: Instant,
    reads: u64,
    writes: u64,
    failed: u64,
    read_lat: Samples,
    write_lat: Samples,
    spans: Option<SpanLog>,
}

/// A measured ARW phase.
pub struct Run {
    /// End-to-end figures (common call = read section, rare call = write
    /// section).
    pub e2e: EndToEnd,
    /// The lock's `read_conflicts` counter over the phase.
    pub read_conflicts: u64,
    /// Fence counters over the phase.
    pub fences: FenceStatsSnapshot,
    /// `lbmf-trace` events appended during the phase.
    pub trace_events: u64,
    /// Recorded spans (traced runs only).
    pub spans: Option<SpanLog>,
    /// The lock, for the per-layer rungs.
    pub guarded: Arc<Guarded>,
}

/// Read section: the generation, and whether every word agreed on it.
#[inline]
pub fn read_generation(g: &Guarded) -> (u64, bool) {
    let first = g.words[0].load(Ordering::Relaxed);
    let same = g.words[1..]
        .iter()
        .all(|w| w.load(Ordering::Relaxed) == first);
    (first, same)
}

fn bump_generation(g: &Guarded) {
    let next = g.words[0].load(Ordering::Relaxed) + 1;
    for w in &g.words {
        w.store(next, Ordering::Relaxed);
    }
}

/// Set up the lock (timed, `setups` times), then run both threads
/// closed-loop for `seconds`.
pub fn run(seed: u64, seconds: f64, setups: usize, traced: bool, clock: &Clock) -> Run {
    let positions: Vec<Arc<Vec<u32>>> = (0..harness::THREADS)
        .map(|w| Arc::new(write_positions(seed, w)))
        .collect();
    let build = || {
        Arc::new(Guarded {
            lock: Arc::new(AsymRwLock::new(Arc::new(SignalFence::new()))),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        })
    };
    let read_cap = ((seconds * 4e6) as usize).clamp(1 << 16, 1 << 21);
    let worker = Arc::new(move |g: &Arc<Guarded>, w: usize, ctl: &Ctl| {
        let handle = g.lock.register_reader();
        if !ctl.rendezvous() {
            return None;
        }
        let positions = &positions[w][..];
        let mut out = Worker {
            start: Instant::now(),
            end: Instant::now(),
            reads: 0,
            writes: 0,
            failed: 0,
            read_lat: Samples::with_capacity(read_cap),
            write_lat: Samples::with_capacity(1 << 17),
            spans: traced.then(|| SpanLog::new(w as u32, NAME, 1 << 15)),
        };
        let root = out.spans.as_mut().map_or(0, SpanLog::open);
        let t_root = tsc();
        let (mut i, mut next, mut calls, mut last_gen) = (0u32, 0usize, 0u64, 0u64);
        out.start = Instant::now();
        loop {
            if calls % 16 == 0 {
                ctl.publish(w, calls);
                if ctl.stopped() {
                    break;
                }
            }
            if next < positions.len() && i == positions[next] {
                let a = tsc();
                g.lock.with_write(|| bump_generation(g));
                let b = tsc();
                out.write_lat.push(b - a);
                if let Some(log) = out.spans.as_mut() {
                    log.leaf(root, "arw.write", a, b);
                }
                out.writes += 1;
                next += 1;
            } else {
                let (generation, same) = if out.reads.is_multiple_of(SAMPLE_EVERY) {
                    let a = tsc();
                    let seen = handle.read(|| read_generation(g));
                    let b = tsc();
                    out.read_lat.push(b - a);
                    if let Some(log) = out.spans.as_mut() {
                        log.leaf(root, "arw.read", a, b);
                    }
                    seen
                } else {
                    handle.read(|| read_generation(g))
                };
                // One generation in the array, never older than one this
                // thread saw before.
                out.failed += u64::from(!same || generation < last_gen);
                last_gen = generation;
                out.reads += 1;
            }
            calls += 1;
            i += 1;
            if i as usize == STREAM_OPS {
                i = 0;
                next = 0;
            }
        }
        out.end = Instant::now();
        ctl.finish();
        if let Some(log) = out.spans.as_mut() {
            log.close(root, 0, "arw.loop", t_root, tsc());
        }
        Some(out)
    });
    let (rig, setup_s) = harness::set_up(setups, &build, worker);
    let conflicts_before = rig.shared.lock.read_conflicts.load(Ordering::Relaxed);
    let fences_before = rig.shared.lock.strategy().stats().snapshot();
    let (events_before, _) = harness::trace_totals();
    let fin = rig.run(seconds, None);
    let (events_after, _) = harness::trace_totals();
    let g = fin.shared.clone();
    let fences = g.lock.strategy().stats().snapshot().diff(&fences_before);
    let start = fin
        .results
        .iter()
        .map(|r| r.start)
        .min()
        .expect("two workers");
    let end = fin
        .results
        .iter()
        .map(|r| r.end)
        .max()
        .expect("two workers");
    let (reads, writes) = fin
        .results
        .iter()
        .fold((0, 0), |(r, w), x| (r + x.reads, w + x.writes));
    let mut failed: u64 = fin.results.iter().map(|r| r.failed).sum();
    // Every write section bumped the generation exactly once.
    let (generation, same) = read_generation(&g);
    failed += u64::from(!same || generation != writes);
    let common = Latency::of(fin.results.iter().map(|r| &r.read_lat), clock);
    let rare = Latency::of(fin.results.iter().map(|r| &r.write_lat), clock);
    let spans = SpanLog::gather(fin.results.into_iter().map(|r| r.spans));
    Run {
        e2e: EndToEnd {
            setups: setup_s,
            elapsed_s: end.duration_since(start).as_secs_f64(),
            window_rates: fin.window_rates,
            peak_rss_mib: fin.peak_rss_mib,
            common_calls: reads,
            rare_calls: writes,
            common,
            rare,
            failed,
        },
        read_conflicts: g.lock.read_conflicts.load(Ordering::Relaxed) - conflicts_before,
        fences,
        trace_events: events_after - events_before,
        spans,
        guarded: g,
    }
}
