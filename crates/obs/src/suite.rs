//! The recording suite: the benchmarks `lbmf-obs record` drives, in
//! process, through the mini-criterion harness — with the two
//! observability channels the stdout benches lose captured alongside
//! each timing: the strategy's [`FenceStats`] diff across the run, and
//! the serialize round-trip latency percentiles drained from the trace
//! rings.
//!
//! The fence cases (`dekker_entry/*`, `fence/*`, `serialize/*`,
//! `steal/fib_test`) are [`lbmf_bench::suite::fence_suite`], the list
//! `cargo bench` and the E1/E2 figure binaries also run. This module
//! adds what `lbmf-bench` cannot build:
//!
//! * `store/get/*`, `store/put/signal`, `store/put/signal@64k` — the
//!   lbmf-store serving tier: the epoch-pinned read fast path per
//!   strategy, and a write paying one remote serialization to a
//!   registered reader, on a one-key store and on a serving-sized one
//!   (8 shards × 8 Ki keys) where the copy-on-write shows too;
//! * `store/des/*@64c` — the same Zipfian workload replayed through
//!   `lbmf-des` at 64 simulated cores (deterministic projections).
//!
//! [`FenceStats`]: lbmf::stats::FenceStats

use crate::schema::{BenchEntry, BenchReport, HostMeta, SerializeLatency};
use lbmf::strategy::{FenceStrategy, SignalFence, Symmetric};
use lbmf_bench::criterion::{BenchResult, Criterion};
use lbmf_bench::suite::{fence_suite, Harness};
use lbmf_des::SerializeKind;
use lbmf_pmu::PmuSession;
use lbmf_store::workload::CYCLES_PER_NS;
use lbmf_store::{ReclaimMode, Store, WorkloadCfg};
use lbmf_trace::json::{self, Json};
use lbmf_trace::EventKind;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

/// Measurement window per batch: 5 ms in quick (CI smoke) mode, the
/// mini-criterion's 50 ms default otherwise.
pub fn target_for(quick: bool) -> Duration {
    Duration::from_millis(if quick { 5 } else { 50 })
}

/// Times each case through the mini-criterion and pairs it with the
/// strategy's name and counter diff over exactly that run.
struct Recorder {
    c: Criterion,
    entries: Vec<BenchEntry>,
}

impl Harness for Recorder {
    fn case<T>(&mut self, name: &str, strategy: Option<&dyn FenceStrategy>, body: impl FnMut() -> T) {
        let before = strategy.map(|s| s.stats().snapshot());
        let traced = serialize_latency_now().map_or(0, |sl| sl.count);
        self.c.case(name, strategy, body);
        self.entries.push(BenchEntry {
            result: self.c.results().last().expect("case just ran").clone(),
            strategy: strategy.map(|s| s.name().to_string()),
            fence_stats: strategy.zip(before).map(|(s, b)| s.stats().snapshot().diff(&b)),
            // Percentiles ride along whenever the case traced at least
            // one new round trip.
            serialize: serialize_latency_now().filter(|sl| sl.count > traced),
        });
    }
}

/// The store's read fast path, uncontended: the canonical
/// [`lbmf_store::ReadLoop`] (one epoch-pinned lookup per iteration over
/// a prefilled working set). Under `Symmetric` every lookup drains the
/// store buffer at the l-mfence position; under the asymmetric
/// strategies the same position is a compiler fence — the delta between
/// the two entries is the paper's read-side win priced on a real data
/// structure.
fn store_get<S: FenceStrategy>(h: &mut impl Harness, name: &str, strategy: Arc<S>) {
    let mut rl = lbmf_store::ReadLoop::new(strategy.clone());
    h.case(name, Some(&*strategy), || rl.read_next());
}

/// A parked thread holding a live [`StoreHandle`](lbmf_store::StoreHandle),
/// so a benchmarked writer has a registered remote reader to serialize.
struct ParkedStoreReader {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ParkedStoreReader {
    fn spawn<S: FenceStrategy>(store: Arc<Store<S>>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("obs-store-reader".into())
            .spawn(move || {
                let reader = store.handle();
                tx.send(()).unwrap();
                while !stop2.load(Ordering::Relaxed) {
                    black_box(reader.get(0));
                    std::thread::sleep(Duration::from_micros(50));
                }
            })
            .expect("spawn store reader");
        rx.recv().unwrap();
        ParkedStoreReader { stop, handle: Some(handle) }
    }
}

impl Drop for ParkedStoreReader {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The serving-tier cases. Reads first: the same lookup under the
/// mfence baseline and the asymmetric prototype — the store-level E1.
/// Then a write paying the secondary's bill: copy-on-write publish plus
/// one signal round trip to a parked registered reader, first on a
/// one-key store, then round-robin over a prefilled 64 Ki-key one.
fn store_suite(h: &mut impl Harness) {
    store_get(h, "store/get/symmetric", Arc::new(Symmetric::new()));
    store_get(h, "store/get/signal", Arc::new(SignalFence::new()));

    let strategy = Arc::new(SignalFence::new());
    for (name, shards, keys) in [
        ("store/put/signal", 1, 1u64),
        ("store/put/signal@64k", 8, 64 * 1024),
    ] {
        let capacity = (keys as usize / shards).max(64);
        let store = Arc::new(Store::new(
            strategy.clone(),
            shards,
            capacity,
            ReclaimMode::Free,
        ));
        // Prefill before the reader registers: no serializations.
        for k in 0..keys {
            store.put(k, k + 1);
        }
        let _reader = ParkedStoreReader::spawn(store.clone());
        let (mut k, mut v) = (0u64, 1u64);
        h.case(name, Some(&*strategy), || {
            k = (k + 1) % keys;
            v = v.wrapping_add(1) & (u64::MAX >> 1);
            store.put(k, v)
        });
    }
}

/// Replay the canonical read-mostly store workload through `lbmf-des` at
/// `cores` simulated cores and fold the projection into a timing row:
/// `mean_ns` is the makespan-implied cost per read at the DES's assumed
/// clock. Fully deterministic (same schedule, same cost table), hence
/// one sample with zero variance.
fn store_projection(name: &str, cores: usize, serialize: SerializeKind) -> BenchResult {
    let mut cfg = WorkloadCfg::read_mostly();
    // Small enough to simulate in milliseconds; write mix low enough
    // (≈4 writes across 128k ops) that the asymmetric crossover at 64
    // cores is on the winning side — see the workload tests for the
    // arithmetic.
    cfg.ops_per_thread = 2000;
    cfg.keys = 4096;
    cfg.writes_per_million = 30;
    let r = lbmf_store::project(&cfg, cores, serialize);
    let per_read_ns = (r.makespan as f64 / CYCLES_PER_NS as f64) / r.reads.max(1) as f64;
    BenchResult {
        name: name.to_string(),
        iters: r.reads,
        samples: 1,
        min_ns: per_read_ns,
        mean_ns: per_read_ns,
        max_ns: per_read_ns,
        cv: 0.0,
        pmu: None, // a simulated schedule retires no hardware events
    }
}

/// Serialize round-trip percentiles currently visible in the trace
/// rings, as log2-bucket midpoints (the `lbmf-bench/2` semantics — v1
/// recorded the bucket upper bound, which read as an implausibly tidy
/// `2^k − 1`). `None` when no round trip was traced — including builds
/// with the `trace` feature off.
pub fn serialize_latency_now() -> Option<SerializeLatency> {
    let h = lbmf_trace::take_snapshot().latency_histogram(EventKind::SerializeDeliver);
    (h.count() > 0).then(|| SerializeLatency {
        p50: h.percentile_midpoint(50),
        p99: h.percentile_midpoint(99),
        count: h.count(),
    })
}

/// Run the full recording suite and assemble the report. Every
/// benchmark runs under a hardware counter scope (schema v3's `pmu`
/// block); hosts without perf access get the reported rdtscp fallback.
pub fn run(quick: bool) -> BenchReport {
    run_with(&mut PmuSession::new(), quick)
}

/// [`run`] under the given counter session, which the harness borrows
/// for the run and hands back afterwards.
pub(crate) fn run_with(session: &mut PmuSession, quick: bool) -> BenchReport {
    let lent = std::mem::replace(session, PmuSession::tsc("lent to a recording run"));
    let mut rec = Recorder {
        c: Criterion::with_target(target_for(quick)).with_session(lent),
        entries: Vec::new(),
    };
    if let Some((source, reason)) = rec.c.pmu_status() {
        match reason {
            None => eprintln!("pmu: hardware counters ({})", source.name()),
            Some(r) => eprintln!("pmu: degraded to {} — {r}", source.name()),
        }
    }
    fence_suite(&mut rec);
    store_suite(&mut rec);
    *session = rec.c.into_pmu().expect("session attached above");

    // The projection: the identical Zipfian schedule replayed through
    // the DES at 64 simulated cores, per serialization mechanism.
    let mut benchmarks = rec.entries;
    for (name, kind) in [
        ("store/des/symmetric@64c", SerializeKind::Symmetric),
        ("store/des/signal@64c", SerializeKind::Signal),
        ("store/des/lest@64c", SerializeKind::LeSt),
    ] {
        benchmarks.push(BenchEntry::plain(store_projection(name, 64, kind)));
    }

    BenchReport {
        recorded_unix: SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        quick,
        host: HostMeta::current(),
        benchmarks,
    }
}

/// Fold externally collected mini-criterion JSONL (the `LBMF_BENCH_JSON`
/// hook) into a report as timing-only entries. Rows whose names collide
/// with suite entries are suffixed `@ingest` rather than dropped.
pub fn ingest_jsonl(report: &mut BenchReport, text: &str) -> Result<usize, String> {
    let rows = json::parse_lines(text)?;
    let mut added = 0;
    for row in &rows {
        let get = |k: &str| {
            row.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("ingest row missing number {k:?}"))
        };
        let mut name = row
            .get("name")
            .and_then(Json::as_str)
            .ok_or("ingest row missing \"name\"")?
            .to_string();
        if report.entry(&name).is_some() {
            name.push_str("@ingest");
        }
        if report.entry(&name).is_some() {
            continue; // same external row fed twice
        }
        report.benchmarks.push(BenchEntry::plain(
            BenchResult {
                name,
                iters: get("iters")? as u64,
                samples: get("samples")? as usize,
                min_ns: get("min_ns")?,
                mean_ns: get("mean_ns")?,
                max_ns: get("max_ns")?,
                cv: get("cv")?,
                pmu: None, // ingest rows are timing-only
            },
        ));
        added += 1;
    }
    Ok(added)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_appends_and_renames_collisions() {
        let mut report = BenchReport {
            recorded_unix: 0,
            quick: true,
            host: HostMeta::current(),
            benchmarks: vec![BenchEntry::plain(lbmf_bench::criterion::BenchResult {
                name: "a".into(),
                iters: 1,
                samples: 1,
                min_ns: 1.0,
                mean_ns: 1.0,
                max_ns: 1.0,
                cv: 0.0,
                pmu: None,
            })],
        };
        let jsonl = "{\"name\":\"a\",\"iters\":2,\"samples\":3,\"min_ns\":1,\"mean_ns\":2,\"max_ns\":3,\"cv\":0.1}\n\
                     {\"name\":\"b\",\"iters\":2,\"samples\":3,\"min_ns\":1,\"mean_ns\":2,\"max_ns\":3,\"cv\":0.1}";
        let added = ingest_jsonl(&mut report, jsonl).unwrap();
        assert_eq!(added, 2);
        assert!(report.entry("a@ingest").is_some());
        assert!(report.entry("b").is_some());
        assert!(ingest_jsonl(&mut report, "{\"name\":\"c\"}").is_err());
    }

    #[test]
    fn jsonl_rows_with_control_characters_round_trip() {
        // A newline in a name must not split its JSONL row in two.
        let row = BenchResult {
            name: "a\nb \"q\"".into(),
            iters: 4,
            samples: 5,
            min_ns: 1.5,
            mean_ns: 2.25,
            max_ns: 3.0,
            cv: 0.125,
            pmu: None,
        };
        let line = row.to_json().render();
        assert_eq!(line.lines().count(), 1, "{line}");
        let mut report = BenchReport {
            recorded_unix: 0,
            quick: true,
            host: HostMeta::current(),
            benchmarks: Vec::new(),
        };
        assert_eq!(ingest_jsonl(&mut report, &format!("{line}\n")), Ok(1));
        assert_eq!(report.benchmarks[0].result, row);
    }
}
