//! The per-layer ladder of the traced run: rungs that time one layer's
//! public function from outside, and the table of per-layer metrics with
//! the end-to-end metric each should move.

use crate::harness::{self, quantile, tsc, Clock};
use crate::kv::KvStore;
use crate::{arw, cilk, kv, ratio, Metric};
use lbmf::registry::register_current_thread;
use lbmf::strategy::{FenceStrategy, SignalFence, Symmetric};
use lbmf_store::{Op, Table};
use lbmf_trace::EventKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

/// How long each batched rung runs.
const RUNG: Duration = Duration::from_millis(300);

/// Calls per timed batch in the batched rungs.
const BATCH: usize = 256;

/// One per-layer metric: name, unit, direction, and the end-to-end
/// figure (@ workload) it should move, named as the run prints it (see
/// the README for how these map onto the gated `ops_per_s` and
/// `common_p50_ns`).
pub struct LayerMetric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The end-to-end metric and workload this layer metric should move.
    pub moves: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

/// Every per-layer metric of the traced run, in print order.
#[rustfmt::skip]
pub const LAYER_METRICS: [LayerMetric; 36] = [
    lm("store.get_ns", "ns", "lower", "read_ops_per_s, read_p50_ns @ kv-read-zipf"),
    lm("store.put_us", "us", "lower", "write_p50_us @ kv-write-uniform"),
    lm("store.put_rest_us", "us", "lower", "write_p50_us @ kv-write-uniform"),
    lm("store.serializations_per_put", "count", "lower", "write_p50_us @ kv-write-uniform"),
    lm("store.reclaimed_per_retired", "ratio", "higher", "peak_rss_mib @ kv-write-uniform"),
    lm("store.limbo_depth_max", "count", "lower", "peak_rss_mib, write_p99_us @ kv-write-uniform"),
    lm("store.hit_ratio", "ratio", "higher", "fail_ratio @ kv-*"),
    lm("store.prefill_s", "s", "lower", "setup_s @ kv-write-uniform"),
    lm("table.clone_us", "us", "lower", "write_p50_us @ kv-write-uniform"),
    lm("core.primary_fence_ns.signal", "ns", "lower", "read_p50_ns @ kv-read-zipf, arw-read-mostly; fib_ms"),
    lm("core.primary_fence_ns.symmetric", "ns", "lower", "none; reference only"),
    lm("core.serialize_p50_us", "us", "lower", "write_p50_us @ kv-write-uniform, arw-read-mostly"),
    lm("core.serialize_p99_us", "us", "lower", "write_p99_us @ kv-write-uniform, arw-read-mostly"),
    lm("core.serialize_undelivered", "count", "lower", "fail_ratio"),
    lm("core.full_fences_per_read", "ratio", "lower", "read_p50_ns @ kv-read-zipf"),
    lm("arw.read_ns", "ns", "lower", "read_ops_per_s @ arw-read-mostly"),
    lm("arw.write_us", "us", "lower", "write_p50_us @ arw-read-mostly"),
    lm("arw.read_conflicts_per_write", "ratio", "lower", "read_p99_ns @ arw-read-mostly"),
    lm("trace.record_ns", "ns", "lower", "read_p50_ns @ kv-read-zipf"),
    lm("trace.events_per_read", "ratio", "lower", "read_p50_ns @ kv-read-zipf"),
    lm("trace.events_per_write", "ratio", "lower", "write_p50_us @ kv-write-uniform"),
    lm("trace.events_per_spawn", "ratio", "lower", "fib_ms @ cilk-fork-join"),
    lm("trace.dropped_ratio", "ratio", "lower", "none; ring health"),
    lm("cilk.spawn_ns", "ns", "lower", "fib_ms @ cilk-fork-join"),
    lm("cilk.run_empty_us", "us", "lower", "fib_ms, cilksort_ms @ cilk-fork-join"),
    lm("cilk.fib.pushes", "count", "lower", "fib_ms @ cilk-fork-join"),
    lm("cilk.fib.pop_conflicts", "count", "lower", "fib_ms @ cilk-fork-join"),
    lm("cilk.fib.steal_attempts", "count", "lower", "fib_ms @ cilk-fork-join"),
    lm("cilk.fib.steal_success_ratio", "ratio", "higher", "fib_ms @ cilk-fork-join"),
    lm("cilk.fib.serializations_per_steal_attempt", "ratio", "lower", "fib_ms @ cilk-fork-join"),
    lm("cilk.cilksort.pushes", "count", "lower", "cilksort_ms @ cilk-fork-join"),
    lm("cilk.cilksort.pop_conflicts", "count", "lower", "cilksort_ms @ cilk-fork-join"),
    lm("cilk.cilksort.steal_attempts", "count", "lower", "cilksort_ms @ cilk-fork-join"),
    lm("cilk.cilksort.steal_success_ratio", "ratio", "higher", "cilksort_ms @ cilk-fork-join"),
    lm("cilk.cilksort.serializations_per_steal_attempt", "ratio", "lower", "cilksort_ms @ cilk-fork-join"),
    lm("bench.trace_overhead", "ratio", "lower", "none; instrumentation cost"),
];

/// Look up a per-layer metric's unit.
pub fn unit_of(name: &str) -> &'static str {
    LAYER_METRICS
        .iter()
        .find(|m| m.name == name)
        .map_or("count", |m| m.unit)
}

/// Both threads run `body`, which sets up its thread's state and then
/// hands [`Batches::run`] one batch of [`BATCH`] calls; returns the
/// median nanoseconds per call over all timed batches.
fn per_call_ns<B>(clock: &Clock, body: B) -> f64
where
    B: Fn(usize, &mut Batches) + Sync,
{
    let stop = AtomicBool::new(false);
    let start = Barrier::new(harness::THREADS + 1);
    let mut ticks: Vec<f64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..harness::THREADS)
            .map(|t| {
                let (stop, start, body) = (&stop, &start, &body);
                s.spawn(move || {
                    let mut b = Batches {
                        stop,
                        start,
                        ticks: Vec::with_capacity(1 << 16),
                    };
                    body(t, &mut b);
                    b.ticks
                })
            })
            .collect();
        start.wait();
        std::thread::sleep(RUNG);
        stop.store(true, Ordering::Relaxed);
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("rung thread panicked"))
            .collect()
    });
    ticks.sort_by(f64::total_cmp);
    clock.ns(quantile(&ticks, 0.5)) / BATCH as f64
}

/// A rung thread's batch timer.
pub struct Batches<'a> {
    stop: &'a AtomicBool,
    start: &'a Barrier,
    ticks: Vec<f64>,
}

impl Batches<'_> {
    /// Wait for the other rung thread, then time `batch` repeatedly until
    /// the rung ends.
    pub fn run(&mut self, mut batch: impl FnMut()) {
        self.start.wait();
        while !self.stop.load(Ordering::Relaxed) {
            let a = tsc();
            batch();
            self.ticks.push((tsc() - a) as f64);
        }
    }
}

/// `primary_fence` looped by both threads on one shared strategy.
pub fn primary_fence_ns<S: FenceStrategy>(strategy: S, clock: &Clock) -> f64 {
    per_call_ns(clock, |_, b| {
        b.run(|| {
            for _ in 0..BATCH {
                strategy.primary_fence();
            }
        })
    })
}

/// `lbmf_trace::record` looped by both threads.
pub fn trace_record_ns(clock: &Clock) -> f64 {
    per_call_ns(clock, |t, b| {
        b.run(|| {
            for i in 0..BATCH {
                lbmf_trace::record(EventKind::PrimaryFence, t, i as u64);
            }
        })
    })
}

/// `StoreHandle::get` in batches by both threads over the gets of their
/// own streams; also returns `lbmf-trace` events appended per get.
pub fn store_get_ns(store: &Arc<KvStore>, inputs: &kv::Inputs, clock: &Clock) -> (f64, f64) {
    let (events_before, _) = harness::trace_totals();
    let gets = std::sync::atomic::AtomicU64::new(0);
    let ns = per_call_ns(clock, |t, b| {
        let keys: Vec<u64> = inputs.streams[t]
            .iter()
            .filter_map(|op| match *op {
                Op::Get(k) => Some(k),
                Op::Put(..) => None,
            })
            .collect();
        let handle = store.handle();
        let mut i = 0usize;
        let mut done = 0u64;
        b.run(|| {
            for _ in 0..BATCH {
                std::hint::black_box(handle.get(keys[i]));
                i = if i + 1 == keys.len() { 0 } else { i + 1 };
            }
            done += BATCH as u64;
        });
        gets.fetch_add(done, Ordering::Relaxed);
    });
    let (events_after, _) = harness::trace_totals();
    (
        ns,
        ratio(
            (events_after - events_before) as f64,
            gets.into_inner() as f64,
        ),
    )
}

/// `ReaderHandle::read` of the generation check, in batches by both
/// threads, with no writer.
pub fn arw_read_ns(g: &Arc<arw::Guarded>, clock: &Clock) -> f64 {
    per_call_ns(clock, |_, b| {
        let handle = g.lock.register_reader();
        b.run(|| {
            for _ in 0..BATCH {
                std::hint::black_box(handle.read(|| arw::read_generation(g)));
            }
        })
    })
}

/// `serialize_remote` to a peer thread while it runs its read loop
/// (`primary_fence` on the same strategy): p50 and p99 in µs.
pub fn serialize_us(clock: &Clock) -> (f64, f64) {
    const TRIPS: usize = 2000;
    let strategy = SignalFence::new();
    let stop = AtomicBool::new(false);
    let mut ticks: Vec<f64> = std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        let (strategy, stop) = (&strategy, &stop);
        let peer = s.spawn(move || {
            let registration = register_current_thread();
            tx.send(registration.remote()).expect("send peer handle");
            while !stop.load(Ordering::Relaxed) {
                strategy.primary_fence();
            }
        });
        let remote = rx.recv().expect("peer registered");
        let ticks = (0..TRIPS)
            .map(|_| {
                let a = tsc();
                strategy.serialize_remote(&remote);
                (tsc() - a) as f64
            })
            .collect();
        stop.store(true, Ordering::Relaxed);
        peer.join().expect("serialize peer panicked");
        ticks
    });
    ticks.sort_by(f64::total_cmp);
    (
        clock.ns(quantile(&ticks, 0.5)) / 1e3,
        clock.ns(quantile(&ticks, 0.99)) / 1e3,
    )
}

/// `Table::clone_with` on a table holding `entries` keys, µs (median).
pub fn table_clone_us(entries: usize, clock: &Clock) -> f64 {
    let mut table = Table::with_capacity(entries);
    for k in 0..entries as u64 {
        table = table.clone_with(k, Some(k + 1));
    }
    let mut ticks: Vec<f64> = (0..200u64)
        .map(|i| {
            let a = tsc();
            let copy = table.clone_with(i % entries as u64, Some(i));
            let t = (tsc() - a) as f64;
            std::hint::black_box(copy);
            t
        })
        .collect();
    ticks.sort_by(f64::total_cmp);
    clock.ns(quantile(&ticks, 0.5)) / 1e3
}

/// `Scheduler::run` of an empty closure (wake a worker, set the latch)
/// on a fresh two-worker pool, µs (median).
pub fn run_empty_us(clock: &Clock) -> f64 {
    let sched = cilk::start_pool(Arc::new(SignalFence::new()));
    let mut ticks: Vec<f64> = (0..2000)
        .map(|_| {
            let a = tsc();
            sched.run(|_| ());
            (tsc() - a) as f64
        })
        .collect();
    ticks.sort_by(f64::total_cmp);
    clock.ns(quantile(&ticks, 0.5)) / 1e3
}

/// The traced phases the per-layer metrics are read from: the workload's
/// own, plus a short run of each layer the workload does not exercise.
pub struct Sources<'a> {
    /// A traced KV phase and its inputs.
    pub kv: (&'a kv::Run, &'a kv::Inputs),
    /// A traced ARW phase.
    pub arw: &'a arw::Run,
    /// A traced fork-join phase.
    pub cilk: &'a cilk::Run,
}

/// Run the rungs and read every per-layer metric except
/// `bench.trace_overhead`.
pub fn layer_metrics(src: &Sources<'_>, clock: &Clock) -> Vec<Metric> {
    let (kv_run, kv_inputs) = src.kv;
    let (get_ns, events_per_read) = store_get_ns(&kv_run.store_ref, kv_inputs, clock);
    let shard_entries = (kv_inputs.cfg.keys as usize / kv_inputs.cfg.shards).max(1);
    let clone_us = table_clone_us(shard_entries, clock);
    let (ser_p50, ser_p99) = serialize_us(clock);
    let put_us = kv_run.e2e.rare.p50_ns / 1e3;
    let undelivered: u64 = [&kv_run.fences, &src.arw.fences]
        .iter()
        .map(|f| f.serializations_requested - f.serializations_delivered)
        .sum::<u64>()
        + src.cilk.undelivered;
    let (gets, puts) = (kv_run.e2e.common_calls as f64, kv_run.e2e.rare_calls as f64);
    let events_per_write = ratio(kv_run.trace_events as f64 - gets * events_per_read, puts);
    let fib = &src.cilk.kernels[0];

    let mut out: Vec<(String, f64)> = [
        ("store.get_ns", get_ns),
        ("store.put_us", put_us),
        ("store.put_rest_us", put_us - clone_us - ser_p50),
        (
            "store.serializations_per_put",
            ratio(kv_run.fences.serializations_requested as f64, puts),
        ),
        (
            "store.reclaimed_per_retired",
            ratio(
                kv_run.store.tables_reclaimed as f64,
                kv_run.store.tables_retired as f64,
            ),
        ),
        ("store.limbo_depth_max", kv_run.limbo_depth_max as f64),
        (
            "store.hit_ratio",
            ratio(kv_run.store.hits as f64, kv_run.store.gets as f64),
        ),
        ("store.prefill_s", harness::median(&kv_run.prefill_s)),
        ("table.clone_us", clone_us),
        (
            "core.primary_fence_ns.signal",
            primary_fence_ns(SignalFence::new(), clock),
        ),
        (
            "core.primary_fence_ns.symmetric",
            primary_fence_ns(Symmetric::new(), clock),
        ),
        ("core.serialize_p50_us", ser_p50),
        ("core.serialize_p99_us", ser_p99),
        ("core.serialize_undelivered", undelivered as f64),
        (
            "core.full_fences_per_read",
            ratio(kv_run.fences.primary_full_fences as f64, gets),
        ),
        ("arw.read_ns", arw_read_ns(&src.arw.guarded, clock)),
        ("arw.write_us", src.arw.e2e.rare.p50_ns / 1e3),
        (
            "arw.read_conflicts_per_write",
            ratio(src.arw.read_conflicts as f64, src.arw.e2e.rare_calls as f64),
        ),
        ("trace.record_ns", trace_record_ns(clock)),
        ("trace.events_per_read", events_per_read),
        ("trace.events_per_write", events_per_write),
        (
            "trace.events_per_spawn",
            ratio(fib.trace_events as f64, fib.pushes as f64),
        ),
        ("cilk.spawn_ns", ratio(fib.seconds * 1e9, fib.pushes as f64)),
        ("cilk.run_empty_us", run_empty_us(clock)),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect();
    for (k, stats) in cilk::KERNELS.iter().zip(&src.cilk.kernels) {
        let per_run = |n: u64| ratio(n as f64, stats.runs as f64);
        let name = k.name();
        out.extend([
            (format!("cilk.{name}.pushes"), per_run(stats.pushes)),
            (
                format!("cilk.{name}.pop_conflicts"),
                per_run(stats.pop_conflicts),
            ),
            (
                format!("cilk.{name}.steal_attempts"),
                per_run(stats.steal_attempts),
            ),
            (
                format!("cilk.{name}.steal_success_ratio"),
                ratio(stats.steals as f64, stats.steal_attempts as f64),
            ),
            (
                format!("cilk.{name}.serializations_per_steal_attempt"),
                ratio(stats.serializations as f64, stats.steal_attempts as f64),
            ),
        ]);
    }
    // Ring health over everything recorded so far, rungs included.
    let (appended, dropped) = harness::trace_totals();
    out.push((
        "trace.dropped_ratio".into(),
        ratio(dropped as f64, appended as f64),
    ));
    out.into_iter()
        .map(|(n, v)| {
            let unit = unit_of(&n);
            Metric::new(n, v, unit)
        })
        .collect()
}
