//! End-to-end benchmark of `lbmf`: the paper's two-party cost split
//! measured on live threads.
//!
//! Four closed-loop workloads, each on the signal-based asymmetric fence
//! (`SignalFence`, the paper's software prototype), with two threads that
//! issue their next call only when the previous one returned:
//!
//! * [`kv`] `kv-read-zipf` and `kv-write-uniform`: the `lbmf-store`
//!   serving tier, read-dominated under Zipf skew, and write-heavy over
//!   uniform keys;
//! * [`arw`] `arw-read-mostly`: the asymmetric reader-writer lock (the
//!   paper's Fig. 6 application);
//! * [`cilk`] `cilk-fork-join`: the ACilk-5 scheduler running `fib` and
//!   `cilksort` (the paper's Fig. 5 application).
//!
//! Every layer is measured from outside, through its public functions
//! and counters; [`ladder`] holds the per-layer rungs of the traced run.

pub mod arw;
pub mod cilk;
pub mod harness;
pub mod kv;
pub mod ladder;

/// Operations in one generated per-thread stream; a run replays its
/// stream cyclically for as long as it measures.
pub const STREAM_OPS: usize = 1 << 20;

/// One in this many common calls (gets, read sections) is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// The benchmark's workloads, by command-line name.
pub const WORKLOADS: [&str; 4] = [
    kv::READ_ZIPF.name,
    kv::WRITE_UNIFORM.name,
    arw::NAME,
    cilk::NAME,
];

/// The end-to-end figures of one measured phase, common to every
/// workload. The *common* call is a workload's frequent call (get, read
/// section, `fib` run), the *rare* call its infrequent one (put, write
/// section, `cilksort` run).
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    /// Every set-up time of the phase, s.
    pub setups: Vec<f64>,
    /// Wall time of the measured phase, s.
    pub elapsed_s: f64,
    /// Calls per second, both threads, per [`harness::WINDOW`] of the
    /// phase (empty where calls are too long for windows).
    pub window_rates: Vec<f64>,
    /// Peak resident set right after the phase, MiB.
    pub peak_rss_mib: f64,
    /// Common calls completed, both threads.
    pub common_calls: u64,
    /// Rare calls completed, both threads.
    pub rare_calls: u64,
    /// Common-call latency percentiles.
    pub common: harness::Latency,
    /// Rare-call latency percentiles.
    pub rare: harness::Latency,
    /// Calls whose output check failed (plus one per failed end-of-run
    /// state check).
    pub failed: u64,
}

impl EndToEnd {
    /// Calls attempted.
    pub fn attempted(&self) -> u64 {
        self.common_calls + self.rare_calls
    }

    /// Calls completed per second, both threads: the median window rate,
    /// or the whole-phase rate without windows.
    pub fn ops_per_s(&self) -> f64 {
        if self.window_rates.is_empty() {
            ratio(self.attempted() as f64, self.elapsed_s)
        } else {
            harness::median(&self.window_rates)
        }
    }
}

/// The end-to-end metrics every workload reports with `--trace 0`:
/// name and unit, as listed in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("common_p50_ns", "ns"),
    ("peak_rss_mib", "MiB"),
];

/// A measured run: several phases, each on a fresh set-up. The speed of
/// a phase varies by up to a fifth from one set-up to the next within one
/// process (both threads contend on the object's shared cache lines), so
/// a run averages over several set-ups instead of measuring one longer.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// The phases, in run order.
    pub phases: Vec<EndToEnd>,
}

impl Measured {
    /// Mean of `f` over the phases.
    pub fn mean(&self, f: impl Fn(&EndToEnd) -> f64) -> f64 {
        ratio(self.phases.iter().map(f).sum(), self.phases.len() as f64)
    }

    /// Median of every set-up time of every phase, s.
    pub fn setup_s(&self) -> f64 {
        let all: Vec<f64> = self
            .phases
            .iter()
            .flat_map(|p| p.setups.iter().copied())
            .collect();
        harness::median(&all)
    }

    /// Set-ups timed.
    pub fn setups(&self) -> usize {
        self.phases.iter().map(|p| p.setups.len()).sum()
    }

    /// Peak resident set over the phases, MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        self.phases
            .iter()
            .map(|p| p.peak_rss_mib)
            .fold(0.0, f64::max)
    }

    /// Calls attempted, all phases.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(EndToEnd::attempted).sum()
    }

    /// Calls that failed their check, all phases.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// The [`END_TO_END`] metrics: per-phase `ops_per_s` and common-call
    /// median averaged over the phases.
    pub fn metrics(&self) -> Vec<Metric> {
        let values = [
            self.setup_s(),
            self.mean(EndToEnd::ops_per_s),
            self.mean(|p| p.common.p50_ns),
            self.peak_rss_mib(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric::new(name, value, unit))
            .collect()
    }
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Render the result line: the one JSON object the benchmark's contract
/// asks for as the last line of standard output.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = failed == 0 && attempted > 0 && metrics.iter().all(|m| m.value.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
