//! The two `lbmf-store` workloads: `kv-read-zipf` and `kv-write-uniform`.
//!
//! Both threads hold a `StoreHandle` and replay their own generated op
//! stream (`lbmf_store::workload::ops_for_core`): gets through the handle,
//! puts through `Store::put`. One get in [`SAMPLE_EVERY`] is timed and
//! value-checked; every put is timed.

use crate::harness::{self, tsc, Clock, Ctl, Latency, Samples, SpanLog};
use crate::{EndToEnd, SAMPLE_EVERY, STREAM_OPS};
use lbmf::stats::FenceStatsSnapshot;
use lbmf::strategy::{FenceStrategy, SignalFence};
use lbmf_store::{build_store, ops_for_core, Op, Store, StoreStatsSnapshot, WorkloadCfg};
use std::sync::Arc;
use std::time::Instant;

/// The store type every KV workload runs.
pub type KvStore = Store<SignalFence>;

/// Shards per store.
pub const SHARDS: usize = 8;

/// The shape of one KV workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Keys prefilled (`k -> k + 1`).
    pub keys: u64,
    /// Zipf skew; 0 = uniform.
    pub theta: f64,
    /// Puts per million ops.
    pub writes_per_million: u32,
    /// Set-ups timed per phase (`setup_s` is the median over the run).
    pub setups: usize,
}

/// Read fast path: 16 Ki keys (~512 KiB of tables), Zipf 0.99, 100 puts
/// per million ops.
pub const READ_ZIPF: Shape = Shape {
    name: "kv-read-zipf",
    keys: 16 * 1024,
    theta: 0.99,
    writes_per_million: 100,
    setups: 2,
};

/// Write path: 64 Ki keys (~2 MiB of tables), uniform keys, 50 000 puts
/// per million ops.
pub const WRITE_UNIFORM: Shape = Shape {
    name: "kv-write-uniform",
    keys: 64 * 1024,
    theta: 0.0,
    writes_per_million: 50_000,
    setups: 1,
};

/// Generated inputs of one KV run.
#[derive(Clone)]
pub struct Inputs {
    /// Workload name.
    pub name: &'static str,
    /// Generator configuration (seed included).
    pub cfg: WorkloadCfg,
    /// One op stream per worker.
    pub streams: Vec<Arc<Vec<Op>>>,
    /// Every `(key, value)` any stream puts, sorted: a get may return
    /// `key + 1` or one of these.
    pub written: Arc<Vec<(u64, u64)>>,
}

/// The generator configuration of `shape` under `seed`.
pub fn cfg(shape: &Shape, seed: u64) -> WorkloadCfg {
    WorkloadCfg {
        threads: harness::THREADS,
        shards: SHARDS,
        keys: shape.keys,
        theta: shape.theta,
        writes_per_million: shape.writes_per_million,
        ops_per_thread: STREAM_OPS,
        seed,
        arrival_ns: None,
    }
}

/// Generate the streams of `shape` under `seed` (before any timing).
pub fn inputs(shape: &Shape, seed: u64) -> Inputs {
    let cfg = cfg(shape, seed);
    let streams: Vec<Arc<Vec<Op>>> = (0..cfg.threads)
        .map(|t| Arc::new(ops_for_core(&cfg, t)))
        .collect();
    let mut written: Vec<(u64, u64)> = streams
        .iter()
        .flat_map(|s| s.iter())
        .filter_map(|op| match *op {
            Op::Put(k, v) => Some((k, v)),
            Op::Get(_) => None,
        })
        .collect();
    written.sort_unstable();
    written.dedup();
    Inputs {
        name: shape.name,
        cfg,
        streams,
        written: Arc::new(written),
    }
}

/// Whether a get of `key` may legally return `val`.
pub fn valid(key: u64, val: Option<u64>, written: &[(u64, u64)]) -> bool {
    match val {
        Some(v) => v == key + 1 || written.binary_search(&(key, v)).is_ok(),
        None => false,
    }
}

/// What one worker did in the measured phase.
pub struct Worker {
    start: Instant,
    end: Instant,
    gets: u64,
    puts: u64,
    failed: u64,
    get_lat: Samples,
    put_lat: Samples,
    spans: Option<SpanLog>,
}

/// A measured KV phase.
pub struct Run {
    /// End-to-end figures (common call = get, rare call = put).
    pub e2e: EndToEnd,
    /// Prefill (`build_store`) time of each set-up, s.
    pub prefill_s: Vec<f64>,
    /// Store counters over the phase.
    pub store: StoreStatsSnapshot,
    /// Fence counters over the phase.
    pub fences: FenceStatsSnapshot,
    /// `lbmf-trace` events appended during the phase.
    pub trace_events: u64,
    /// Deepest limbo list seen on any shard (sampled; traced runs only).
    pub limbo_depth_max: u64,
    /// Recorded spans (traced runs only).
    pub spans: Option<SpanLog>,
    /// The store, for the per-layer rungs.
    pub store_ref: Arc<KvStore>,
}

/// Set up the store of `inputs` (timed, `setups` times), then run it closed-loop for
/// `seconds`. With `traced`, record spans around every timed call and
/// sample limbo depth.
pub fn run(inputs: &Inputs, seconds: f64, setups: usize, traced: bool, clock: &Clock) -> Run {
    let prefill = std::sync::Mutex::new(Vec::new());
    let cfg = inputs.cfg;
    let build = || {
        let t0 = Instant::now();
        let store = build_store(Arc::new(SignalFence::new()), &cfg);
        prefill
            .lock()
            .expect("prefill log")
            .push(t0.elapsed().as_secs_f64());
        store
    };
    let (name, streams, written) = (inputs.name, inputs.streams.clone(), inputs.written.clone());
    let get_cap = ((seconds * 4e6) as usize).clamp(1 << 16, 1 << 21);
    let worker = Arc::new(move |store: &Arc<KvStore>, w: usize, ctl: &Ctl| {
        let handle = store.handle();
        if !ctl.rendezvous() {
            return None;
        }
        let ops = &streams[w][..];
        let mut out = Worker {
            start: Instant::now(),
            end: Instant::now(),
            gets: 0,
            puts: 0,
            failed: 0,
            get_lat: Samples::with_capacity(get_cap),
            put_lat: Samples::with_capacity(1 << 19),
            spans: traced.then(|| SpanLog::new(w as u32, name, 1 << 15)),
        };
        let root = out.spans.as_mut().map_or(0, SpanLog::open);
        let t_root = tsc();
        out.start = Instant::now();
        let (mut i, mut calls) = (0usize, 0u64);
        loop {
            if calls % 16 == 0 {
                ctl.publish(w, calls);
                if ctl.stopped() {
                    break;
                }
            }
            match ops[i] {
                Op::Get(k) => {
                    if out.gets.is_multiple_of(SAMPLE_EVERY) {
                        let a = tsc();
                        let v = handle.get(k);
                        let b = tsc();
                        out.get_lat.push(b - a);
                        if let Some(log) = out.spans.as_mut() {
                            log.leaf(root, "store.get", a, b);
                        }
                        out.failed += u64::from(!valid(k, v, &written));
                    } else {
                        out.failed += u64::from(std::hint::black_box(handle.get(k)).is_none());
                    }
                    out.gets += 1;
                }
                Op::Put(k, v) => {
                    let a = tsc();
                    let prev = store.put(k, v);
                    let b = tsc();
                    out.put_lat.push(b - a);
                    if let Some(log) = out.spans.as_mut() {
                        log.leaf(root, "store.put", a, b);
                    }
                    out.failed += u64::from(!valid(k, prev, &written));
                    out.puts += 1;
                }
            }
            calls += 1;
            i += 1;
            if i == ops.len() {
                i = 0;
            }
        }
        out.end = Instant::now();
        ctl.finish();
        if let Some(log) = out.spans.as_mut() {
            log.close(root, 0, "kv.loop", t_root, tsc());
        }
        Some(out)
    });
    let (rig, setup_s) = harness::set_up(setups, &build, worker);
    let store_before = rig.shared.stats();
    let fences_before = rig.shared.strategy().stats().snapshot();
    let (events_before, _) = harness::trace_totals();
    let mut limbo_max = 0u64;
    let mut sample_limbo = |s: &KvStore| {
        let deepest = (0..s.shard_count())
            .map(|i| s.shard(i).health_probe().limbo_depth)
            .max();
        limbo_max = limbo_max.max(deepest.unwrap_or(0));
    };
    let fin = rig.run(
        seconds,
        if traced {
            Some(&mut sample_limbo)
        } else {
            None
        },
    );
    let (events_after, _) = harness::trace_totals();
    let store = fin.shared.stats().diff(&store_before);
    let fences = fin
        .shared
        .strategy()
        .stats()
        .snapshot()
        .diff(&fences_before);

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
    let (gets, puts) = fin
        .results
        .iter()
        .fold((0, 0), |(g, p), r| (g + r.gets, p + r.puts));
    let mut failed: u64 = fin.results.iter().map(|r| r.failed).sum();
    // Keys are never removed: the store must still hold every one.
    failed += u64::from(fin.shared.len() as u64 != cfg.keys);
    let common = Latency::of(fin.results.iter().map(|r| &r.get_lat), clock);
    let rare = Latency::of(fin.results.iter().map(|r| &r.put_lat), clock);
    let spans = SpanLog::gather(fin.results.into_iter().map(|r| r.spans));
    Run {
        e2e: EndToEnd {
            setups: setup_s,
            elapsed_s: end.duration_since(start).as_secs_f64(),
            window_rates: fin.window_rates,
            peak_rss_mib: fin.peak_rss_mib,
            common_calls: gets,
            rare_calls: puts,
            common,
            rare,
            failed,
        },
        prefill_s: prefill.into_inner().expect("prefill log"),
        store,
        fences,
        trace_events: events_after - events_before,
        limbo_depth_max: limbo_max,
        spans,
        store_ref: fin.shared,
    }
}
