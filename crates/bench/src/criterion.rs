//! Minimal drop-in replacement for the slice of the `criterion` API the
//! benches under `benches/` use. The hosts build offline, so the real
//! `criterion` crate (a registry dependency) is unavailable; this module
//! keeps the bench binaries compiling and producing useful
//! nanosecond-per-iteration numbers with no external dependencies.
//!
//! Protocol per benchmark: calibrate the iteration count by doubling until
//! one batch exceeds the warm-up window, then time `SAMPLES` batches and
//! report the minimum, mean, and maximum per-iteration cost (minimum is
//! the robust statistic on a busy single-core host), plus the coefficient
//! of variation across batches — the noise figure `lbmf-obs compare`
//! scales its regression thresholds by. Tune the measurement window with
//! `LBMF_BENCH_MS` (milliseconds per batch, default 50).
//!
//! Progress lines go to stderr, so a tool that prints a document on
//! stdout (`lbmf-obs pmu --json`) can run benchmarks in process.
//!
//! Structured output: every completed benchmark is also available as a
//! [`BenchResult`] via [`Criterion::results`], and — when the
//! `LBMF_BENCH_JSON=<path>` environment variable is set — appended to
//! `<path>` as one JSON object per line (JSONL). `lbmf-obs record`
//! consumes both forms.
//!
//! Hardware counters: with [`Criterion::with_pmu`] (or
//! `LBMF_BENCH_PMU=1`) each benchmark's timed batches — calibration
//! excluded — run inside one `lbmf_pmu` counter scope, and the result
//! carries a per-op [`PmuReading`] (cycles, IPC, misses; or the
//! surfaced-and-reported rdtscp fallback where perf is unavailable).

use lbmf_pmu::{PmuReading, PmuSession};
use lbmf_trace::json::{obj, Json};
use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Number of timed batches per benchmark.
const SAMPLES: usize = 5;

fn target_batch() -> Duration {
    let ms = std::env::var("LBMF_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(50);
    Duration::from_millis(ms.max(1))
}

/// One benchmark's structured result: per-iteration nanoseconds and the
/// batch-to-batch noise figure. This is the record `lbmf-obs` persists
/// into `BENCH_<n>.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchResult {
    /// Full benchmark name (`group/id` for grouped benchmarks).
    pub name: String,
    /// Iterations per timed batch (after calibration).
    pub iters: u64,
    /// Number of timed batches.
    pub samples: usize,
    /// Minimum per-iteration cost across batches, nanoseconds.
    pub min_ns: f64,
    /// Mean per-iteration cost across batches, nanoseconds.
    pub mean_ns: f64,
    /// Maximum per-iteration cost across batches, nanoseconds.
    pub max_ns: f64,
    /// Coefficient of variation of the per-batch means (stddev / mean,
    /// dimensionless). The noise scale for regression thresholds.
    pub cv: f64,
    /// Hardware counter attribution for the timed batches, when the
    /// harness ran with a PMU session (schema v3's optional `pmu` block).
    pub pmu: Option<PmuReading>,
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// Render a [`PmuReading`] as one JSON object — the `pmu` block of the
/// JSONL stream, of `BENCH_<n>.json` schema v3 and of `lbmf-pmu/1`.
/// Optional counters are omitted (not null) when the host's PMU lacks
/// them; the `degraded_reason` key is present exactly when the source is
/// `tsc`. `cycles_per_op` keeps 3 decimals, the other ratios 6.
pub fn pmu_to_json(r: &PmuReading) -> Json {
    let mut fields = vec![
        ("source", Json::Str(r.source.name().to_string())),
        ("ops", Json::Num(r.ops as f64)),
        ("cycles_per_op", Json::Num(round3(r.cycles_per_op))),
    ];
    let mut opt = |key: &'static str, v: Option<f64>| {
        if let Some(v) = v {
            fields.push((key, Json::Num(round6(v))));
        }
    };
    opt("instructions_per_op", r.instructions_per_op);
    opt("ipc", r.ipc);
    opt("cache_misses_per_op", r.cache_misses_per_op);
    opt("stalled_frontend_per_op", r.stalled_frontend_per_op);
    opt("stalled_backend_per_op", r.stalled_backend_per_op);
    if let Some(reason) = &r.degraded_reason {
        fields.push(("degraded_reason", Json::Str(reason.clone())));
    }
    obj(fields)
}

impl BenchResult {
    /// Render as one JSON object: the `LBMF_BENCH_JSON` row, and the
    /// timing half of a `BENCH_<n>.json` entry. Nanoseconds keep 3
    /// decimals, `cv` 6.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::Str(self.name.clone())),
            ("iters", Json::Num(self.iters as f64)),
            ("samples", Json::Num(self.samples as f64)),
            ("min_ns", Json::Num(round3(self.min_ns))),
            ("mean_ns", Json::Num(round3(self.mean_ns))),
            ("max_ns", Json::Num(round3(self.max_ns))),
            ("cv", Json::Num(round6(self.cv))),
        ];
        if let Some(pmu) = &self.pmu {
            fields.push(("pmu", pmu_to_json(pmu)));
        }
        obj(fields)
    }
}

/// Entry point handed to each `criterion_group!` function.
pub struct Criterion {
    target: Duration,
    results: Vec<BenchResult>,
    json_path: Option<String>,
    pmu: Option<PmuSession>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            target: target_batch(),
            results: Vec::new(),
            json_path: std::env::var("LBMF_BENCH_JSON").ok().filter(|p| !p.is_empty()),
            pmu: if std::env::var("LBMF_BENCH_PMU").as_deref() == Ok("1") {
                Some(PmuSession::new())
            } else {
                None
            },
        }
    }
}

impl Criterion {
    /// A harness with an explicit measurement window, bypassing
    /// `LBMF_BENCH_MS` (used by `lbmf-obs record --quick`).
    pub fn with_target(target: Duration) -> Self {
        Criterion {
            target: target.max(Duration::from_millis(1)),
            ..Criterion::default()
        }
    }

    /// Attach a hardware counter session: every subsequent benchmark's
    /// timed batches run inside one counter scope and its result carries
    /// a [`PmuReading`]. Opening the session never fails — hosts without
    /// perf access get the (reported) rdtscp cycles-only fallback.
    pub fn with_pmu(mut self) -> Self {
        if self.pmu.is_none() {
            self.pmu = Some(PmuSession::new());
        }
        self
    }

    /// Attach the given counter session (replacing any other), e.g. one
    /// pinned to the rdtscp fallback. [`Criterion::into_pmu`] hands it
    /// back.
    pub fn with_session(mut self, session: PmuSession) -> Self {
        self.pmu = Some(session);
        self
    }

    /// The attached counter session, if any.
    pub fn into_pmu(self) -> Option<PmuSession> {
        self.pmu
    }

    /// The attached PMU session's source and degradation reason, if a
    /// session is attached (`lbmf-obs record` surfaces this in host
    /// metadata without waiting for the first benchmark).
    pub fn pmu_status(&self) -> Option<(lbmf_pmu::PmuSource, Option<&str>)> {
        self.pmu.as_ref().map(|s| (s.source(), s.degraded_reason()))
    }

    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let report = run_benchmark(self.target, &mut f, self.pmu.as_mut());
        eprintln!("{}", report.render(name));
        let mut result = report.to_result(name);
        result.pmu = self.pmu.as_mut().map(|s| s.take_reading());
        if let Some(pmu) = &result.pmu {
            let (stall_name, stall) = pmu.stall_metric();
            eprintln!(
                "{:<44} pmu:  [{:>10.1} cyc/op  ipc {}  {stall_name}/op {:.1}]  source {}{}",
                "",
                pmu.cycles_per_op,
                pmu.ipc.map_or("  n/a".into(), |v| format!("{v:5.2}")),
                stall,
                pmu.source.name(),
                pmu.degraded_reason
                    .as_deref()
                    .map_or(String::new(), |r| format!(" ({r})")),
            );
        }
        if let Some(path) = &self.json_path {
            // Append-mode JSONL so several bench binaries (or groups) can
            // share one collection file; a write failure is reported but
            // never fails the benchmark run itself.
            let line = result.to_json().render();
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{line}"));
            if let Err(e) = appended {
                eprintln!("LBMF_BENCH_JSON: cannot append to {path}: {e}");
            }
        }
        self.results.push(result);
        self
    }

    /// Structured results of every benchmark run so far, in run order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.to_string(),
        }
    }
}

/// A named family of related benchmarks (`group/id` naming, like criterion).
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        self.c.bench_function(&full, f);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.0);
        self.c.bench_function(&full, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

/// Benchmark identifier within a group; only the `from_parameter` form is
/// used in this repository.
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn from_parameter<P: Display>(p: P) -> Self {
        BenchmarkId(p.to_string())
    }

    pub fn new<P: Display>(function: &str, p: P) -> Self {
        BenchmarkId(format!("{function}/{p}"))
    }
}

/// Passed to the benchmark closure; `iter` times the hot loop.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

struct Report {
    iters: u64,
    min: Duration,
    mean: Duration,
    max: Duration,
    /// Per-batch durations, run order.
    batches: Vec<Duration>,
}

impl Report {
    fn per_iter(&self, d: Duration) -> f64 {
        d.as_nanos() as f64 / self.iters.max(1) as f64
    }

    /// Coefficient of variation of the per-batch means (population
    /// stddev / mean). 0 for fewer than two batches or a zero mean.
    fn cv(&self) -> f64 {
        let n = self.batches.len();
        let mean = self.per_iter(self.mean);
        if n < 2 || mean <= 0.0 {
            return 0.0;
        }
        let var = self
            .batches
            .iter()
            .map(|&d| {
                let x = self.per_iter(d) - mean;
                x * x
            })
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }

    fn render(&self, name: &str) -> String {
        format!(
            "{name:<44} time: [{:>10.1} ns {:>10.1} ns {:>10.1} ns]  cv {:>5.1}%  ({} iters/batch, {} samples)",
            self.per_iter(self.min),
            self.per_iter(self.mean),
            self.per_iter(self.max),
            self.cv() * 100.0,
            self.iters,
            self.batches.len()
        )
    }

    fn to_result(&self, name: &str) -> BenchResult {
        BenchResult {
            name: name.to_string(),
            iters: self.iters,
            samples: self.batches.len(),
            min_ns: self.per_iter(self.min),
            mean_ns: self.per_iter(self.mean),
            max_ns: self.per_iter(self.max),
            cv: self.cv(),
            pmu: None,
        }
    }
}

fn run_once<F: FnMut(&mut Bencher)>(iters: u64, f: &mut F) -> Duration {
    let mut b = Bencher {
        iters,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    b.elapsed
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    target: Duration,
    f: &mut F,
    pmu: Option<&mut PmuSession>,
) -> Report {
    // Calibration: double the batch size until one batch fills the window.
    // Calibration batches run *outside* the counter scope — only the
    // timed samples below are attributed.
    let mut iters: u64 = 1;
    loop {
        let dt = run_once(iters, f);
        if dt >= target || iters >= 1 << 30 {
            break;
        }
        if dt < target / 16 {
            iters = iters.saturating_mul(8);
        } else {
            iters = iters.saturating_mul(2);
        }
    }
    let mut min = Duration::MAX;
    let mut max = Duration::ZERO;
    let mut total = Duration::ZERO;
    let mut batches = Vec::with_capacity(SAMPLES);
    // One scope over all timed batches: ops = iters × SAMPLES. The
    // closure's own setup between `iter` calls is included — same
    // convention as the wall-clock numbers, which also pay it.
    let _scope = pmu.map(|s| s.scope(iters.saturating_mul(SAMPLES as u64)));
    for _ in 0..SAMPLES {
        let dt = run_once(iters, f);
        min = min.min(dt);
        max = max.max(dt);
        total += dt;
        batches.push(dt);
    }
    Report {
        iters,
        min,
        mean: total / SAMPLES as u32,
        max,
        batches,
    }
}

/// Build the group entry function, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::criterion::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Build `main`, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() { $( $group(); )+ }
    };
}

// Re-export the macros under this module's path so bench files can write
// `use lbmf_bench::criterion::{criterion_group, criterion_main, Criterion};`
// — a one-line diff from the upstream `use criterion::{...}`.
pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_counts_iterations() {
        let mut n = 0u64;
        let dt = run_once(1000, &mut |b: &mut Bencher| {
            b.iter(|| n += 1);
        });
        assert_eq!(n, 1000);
        assert!(dt > Duration::ZERO);
    }

    #[test]
    fn with_pmu_attaches_a_reading_covering_the_timed_batches() {
        let mut c = Criterion {
            target: Duration::from_micros(100),
            results: Vec::new(),
            json_path: None,
            pmu: None,
        }
        .with_pmu();
        assert!(c.pmu_status().is_some());
        c.bench_function("pmu/burn", |b| {
            b.iter(|| std::hint::black_box(17u64).wrapping_mul(2654435761))
        });
        let r = &c.results()[0];
        let pmu = r.pmu.as_ref().expect("with_pmu must attach a reading");
        assert_eq!(pmu.ops, r.iters * r.samples as u64, "ops = iters × samples");
        assert!(pmu.cycles_per_op > 0.0);
        if pmu.source == lbmf_pmu::PmuSource::Tsc {
            assert!(pmu.degraded_reason.is_some(), "fallback must be reported");
        }
        let json = r.to_json();
        let block = json.get("pmu").expect("pmu block rendered");
        assert_eq!(block.get("source").and_then(Json::as_str), Some(pmu.source.name()));
        assert!(block.get("cycles_per_op").and_then(Json::as_f64).is_some(), "{json:?}");
    }

    #[test]
    fn pmu_json_omits_missing_counters_and_escapes_the_reason() {
        let full = PmuReading {
            source: lbmf_pmu::PmuSource::Perf,
            degraded_reason: None,
            ops: 500,
            cycles_per_op: 12.5,
            instructions_per_op: Some(30.0),
            ipc: Some(2.4),
            cache_misses_per_op: Some(0.01),
            stalled_frontend_per_op: None,
            stalled_backend_per_op: Some(4.25),
        };
        // Checked on the re-parsed text, so the rendering is covered too.
        let json = lbmf_trace::json::parse(&pmu_to_json(&full).render()).unwrap();
        assert_eq!(json.get("source").and_then(Json::as_str), Some("perf"), "{json:?}");
        assert_eq!(json.get("ops").and_then(Json::as_u64), Some(500), "{json:?}");
        assert_eq!(json.get("ipc").and_then(Json::as_f64), Some(2.4), "{json:?}");
        assert_eq!(json.get("stalled_backend_per_op").and_then(Json::as_f64), Some(4.25));
        assert!(json.get("stalled_frontend_per_op").is_none(), "absent counters are omitted: {json:?}");
        assert!(json.get("degraded_reason").is_none(), "{json:?}");

        let degraded = PmuReading {
            source: lbmf_pmu::PmuSource::Tsc,
            degraded_reason: Some("perf_event_open(cpu-cycles): \"ENOENT\"".into()),
            ops: 10,
            cycles_per_op: 9.0,
            instructions_per_op: None,
            ipc: None,
            cache_misses_per_op: None,
            stalled_frontend_per_op: None,
            stalled_backend_per_op: None,
        };
        let text = pmu_to_json(&degraded).render();
        assert!(text.contains("\"degraded_reason\":\"perf_event_open(cpu-cycles): \\\"ENOENT\\\"\""), "{text}");
        let json = lbmf_trace::json::parse(&text).unwrap();
        assert_eq!(json.get("source").and_then(Json::as_str), Some("tsc"), "{text}");
        assert_eq!(
            json.get("degraded_reason").and_then(Json::as_str),
            Some("perf_event_open(cpu-cycles): \"ENOENT\"")
        );
        assert!(json.get("instructions_per_op").is_none(), "{text}");
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::from_parameter(8).0, "8");
        assert_eq!(BenchmarkId::new("f", 8).0, "f/8");
    }

    fn sample_report() -> Report {
        Report {
            iters: 10,
            min: Duration::from_nanos(1000),
            mean: Duration::from_nanos(2000),
            max: Duration::from_nanos(3000),
            batches: vec![
                Duration::from_nanos(1000),
                Duration::from_nanos(2000),
                Duration::from_nanos(3000),
            ],
        }
    }

    #[test]
    fn report_renders_per_iter() {
        let s = sample_report().render("x");
        assert!(s.contains("100.0 ns"), "{s}");
        assert!(s.contains("300.0 ns"), "{s}");
        assert!(s.contains("3 samples"), "{s}");
        assert!(s.contains("cv"), "{s}");
    }

    #[test]
    fn cv_is_stddev_over_mean() {
        // Batches 100/200/300 ns-per-iter: population stddev = sqrt(2/3)*100,
        // mean = 200, so cv = 0.40824...
        let r = sample_report();
        assert!((r.cv() - 0.408_248).abs() < 1e-4, "cv = {}", r.cv());
        // Degenerate cases are 0, not NaN.
        let one = Report {
            batches: vec![Duration::from_nanos(1000)],
            ..sample_report()
        };
        assert_eq!(one.cv(), 0.0);
    }

    #[test]
    fn result_serializes_to_json_line() {
        let res = sample_report().to_result("group/bench \"q\"");
        assert_eq!(res.samples, 3);
        assert_eq!(res.min_ns, 100.0);
        let line = res.to_json().render();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"name\":\"group/bench \\\"q\\\"\""), "{line}");
        let json = lbmf_trace::json::parse(&line).unwrap();
        assert_eq!(json.get("mean_ns").and_then(Json::as_f64), Some(200.0), "{line}");
        assert_eq!(json.get("cv").and_then(Json::as_f64), Some(0.408248), "{line}");
    }

    #[test]
    fn criterion_collects_results_and_appends_jsonl() {
        let dir = std::env::temp_dir().join(format!(
            "lbmf_bench_json_test_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.jsonl");
        let mut c = Criterion {
            target: Duration::from_micros(100),
            results: Vec::new(),
            json_path: Some(path.to_str().unwrap().to_string()),
            pmu: None,
        };
        c.bench_function("jsonl/a", |b| b.iter(|| std::hint::black_box(1 + 1)));
        c.bench_function("jsonl/b", |b| b.iter(|| std::hint::black_box(2 + 2)));
        assert_eq!(c.results().len(), 2);
        assert_eq!(c.results()[0].name, "jsonl/a");
        assert!(c.results()[0].mean_ns > 0.0);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[1].contains("\"name\":\"jsonl/b\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
