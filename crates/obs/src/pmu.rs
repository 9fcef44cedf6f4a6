//! `lbmf-obs pmu` — microarchitectural attribution for fence
//! strategies: a view over the recording run.
//!
//! Wall-clock rows (`record`) say *how long* a strategy's fast path
//! takes; this module says *where the cycles go*: instructions retired,
//! cache misses taken, and — where the host exposes the events — the
//! stall cycles the mfence-position store-buffer drain costs. It runs
//! `record`'s own suite ([`crate::suite`]) with the given
//! counter session and keeps each entry's `pmu` block, so a `pmu` row
//! and a `record` row with the same name are the same measurement.
//!
//! Degradation is a first-class outcome, not an error: a host without
//! `perf_event_open` (container, VM, `perf_event_paranoid` lockdown)
//! yields a cycles-only report measured through `rdtscp`, with the
//! reason surfaced in every render. Consequently the read-asymmetry
//! verdict — the paper's claim that the symmetric strategy retires
//! measurably more stall cycles per store read than the asymmetric read
//! path — is a hard CI gate only when real counters backed it; under
//! the tsc fallback it degrades to an advisory note, because a TSC
//! delta cannot attribute *why* cycles were spent.

use crate::schema::pmu_from_json;
use lbmf_bench::criterion::pmu_to_json;
use lbmf_pmu::{PmuReading, PmuSession, PmuSource};
use lbmf_trace::json::{obj, Json};
use lbmf_trace::prometheus::Sample;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The schema tag `render_json` writes and `parse` accepts.
pub const PMU_SCHEMA: &str = "lbmf-pmu/1";

/// The read-asymmetry gate's threshold: the symmetric read must spend
/// at least this multiple of the asymmetric read's stall metric to
/// count as "measurably more". Deliberately modest — the observed gap
/// on real hardware is multiples, not percent — so the gate tests the
/// claim's *direction*, not a host-specific magnitude.
pub const ASYMMETRY_MIN_RATIO: f64 = 1.05;

/// One benchmark's attribution row.
#[derive(Clone, Debug)]
pub struct PmuRow {
    /// Benchmark name, matching the recording suite's naming.
    pub name: String,
    /// Fence-strategy label, when the loop is strategy-parameterized.
    pub strategy: Option<String>,
    /// The per-op counter attribution.
    pub reading: PmuReading,
}

/// The full attribution report.
#[derive(Clone, Debug)]
pub struct PmuReport {
    /// The backend every row was measured with.
    pub source: PmuSource,
    /// Why the session degraded, iff `source == Tsc`.
    pub degraded_reason: Option<String>,
    /// Whether the quick (CI smoke) batch window was used.
    pub quick: bool,
    /// Attribution rows, suite order.
    pub rows: Vec<PmuRow>,
}

/// The `store/get` symmetric-vs-asymmetric verdict.
#[derive(Clone, Debug)]
pub struct ReadAsymmetry {
    /// Which per-op metric was compared (the best one both rows carry).
    pub metric: &'static str,
    /// The symmetric (mfence-position) read's value.
    pub symmetric: f64,
    /// The asymmetric (signal) read's value.
    pub asymmetric: f64,
    /// `symmetric / asymmetric` (∞ when the asymmetric side is zero).
    pub ratio: f64,
    /// True when real counters backed the comparison — only then may
    /// the verdict gate a build.
    pub hard: bool,
}

impl ReadAsymmetry {
    /// Does the measurement support the paper's claim?
    pub fn ok(&self) -> bool {
        self.ratio >= ASYMMETRY_MIN_RATIO
    }
}

/// Run the fence suite under a fresh [`PmuSession`] (honoring
/// `LBMF_PMU_FORCE`).
pub fn run(quick: bool) -> PmuReport {
    run_with(&mut PmuSession::new(), quick)
}

/// The recording run (`suite::run_with`) under the given
/// session, viewed as attribution rows: one per entry that carries a
/// `pmu` block, in suite order (the simulated `store/des/*` projections
/// carry none).
pub fn run_with(session: &mut PmuSession, quick: bool) -> PmuReport {
    let rows = crate::suite::run_with(session, quick)
        .benchmarks
        .into_iter()
        .filter_map(|e| {
            Some(PmuRow {
                reading: e.result.pmu?,
                name: e.result.name,
                strategy: e.strategy,
            })
        })
        .collect();
    PmuReport {
        source: session.source(),
        degraded_reason: session.degraded_reason().map(str::to_string),
        quick,
        rows,
    }
}

impl PmuReport {
    /// No rows at all — only possible for an exposition reassembly that
    /// found no `lbmf_pmu_*` families.
    pub fn is_vacuous(&self) -> bool {
        self.rows.is_empty()
    }

    fn row(&self, name: &str) -> Option<&PmuRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// The symmetric-vs-asymmetric store-read comparison, on the best
    /// stall metric both rows carry (backend stalls → frontend stalls →
    /// raw cycles). `None` when either row is missing.
    pub fn read_asymmetry(&self) -> Option<ReadAsymmetry> {
        let sym = &self.row("store/get/symmetric")?.reading;
        let sig = &self.row("store/get/signal")?.reading;
        let (metric, symmetric, asymmetric) =
            match (sym.stalled_backend_per_op, sig.stalled_backend_per_op) {
                (Some(s), Some(a)) => ("stalled-backend/op", s, a),
                _ => match (sym.stalled_frontend_per_op, sig.stalled_frontend_per_op) {
                    (Some(s), Some(a)) => ("stalled-frontend/op", s, a),
                    _ => ("cycles/op", sym.cycles_per_op, sig.cycles_per_op),
                },
            };
        let ratio = if asymmetric > 0.0 {
            symmetric / asymmetric
        } else if symmetric > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        Some(ReadAsymmetry {
            metric,
            symmetric,
            asymmetric,
            ratio,
            hard: self.source == PmuSource::Perf,
        })
    }

    /// Human-readable attribution table plus the asymmetry verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match &self.degraded_reason {
            None => {
                let _ = writeln!(out, "pmu attribution (source: {})", self.source.name());
            }
            Some(r) => {
                let _ = writeln!(
                    out,
                    "pmu attribution (source: {} — degraded: {r})",
                    self.source.name()
                );
            }
        }
        let width = self.rows.iter().map(|r| r.name.len()).max().unwrap_or(0).max(9);
        let _ = writeln!(
            out,
            "  {:width$}  {:>17}  {:>12}  {:>11}  {:>6}  {:>10}  {:>12}  {:>12}",
            "benchmark", "strategy", "ops", "cycles/op", "ipc", "miss/op", "stall-fe/op", "stall-be/op",
        );
        let opt = |v: Option<f64>, prec: usize| match v {
            Some(v) => format!("{v:.prec$}"),
            None => "-".to_string(),
        };
        for r in &self.rows {
            let p = &r.reading;
            let _ = writeln!(
                out,
                "  {:width$}  {:>17}  {:>12}  {:>11.1}  {:>6}  {:>10}  {:>12}  {:>12}",
                r.name,
                r.strategy.as_deref().unwrap_or("-"),
                p.ops,
                p.cycles_per_op,
                opt(p.ipc, 2),
                opt(p.cache_misses_per_op, 4),
                opt(p.stalled_frontend_per_op, 1),
                opt(p.stalled_backend_per_op, 1),
            );
        }
        if let Some(a) = self.read_asymmetry() {
            let _ = writeln!(
                out,
                "read asymmetry (store/get): symmetric {:.1} vs signal {:.1} {} ({}) — {}{}",
                a.symmetric,
                a.asymmetric,
                a.metric,
                if a.ratio.is_finite() {
                    format!("{:.2}x", a.ratio)
                } else {
                    "inf".to_string()
                },
                if a.ok() { "ASYMMETRIC" } else { "NOT ASYMMETRIC" },
                if a.hard { " [hard]" } else { " [advisory: tsc fallback]" },
            );
        }
        out
    }

    /// Machine-readable report (`lbmf-pmu/1`): top-level source and
    /// degradation for one-line consumption, per-row `pmu` blocks in
    /// exactly the schema-v3 shape, plus the derived asymmetry verdict.
    pub fn render_json(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("name", Json::Str(r.name.clone())),
                    ("pmu", pmu_to_json(&r.reading)),
                ];
                if let Some(s) = &r.strategy {
                    fields.push(("strategy", Json::Str(s.clone())));
                }
                obj(fields)
            })
            .collect();
        let mut doc = vec![
            ("schema", Json::Str(PMU_SCHEMA.into())),
            ("source", Json::Str(self.source.name().into())),
            ("quick", Json::Bool(self.quick)),
            ("rows", Json::Arr(rows)),
        ];
        if let Some(r) = &self.degraded_reason {
            doc.push(("degraded_reason", Json::Str(r.clone())));
        }
        if let Some(a) = self.read_asymmetry() {
            doc.push((
                "read_asymmetry",
                obj(vec![
                    ("metric", Json::Str(a.metric.into())),
                    ("symmetric_per_op", Json::Num(a.symmetric)),
                    ("asymmetric_per_op", Json::Num(a.asymmetric)),
                    (
                        "ratio",
                        if a.ratio.is_finite() { Json::Num(a.ratio) } else { Json::Null },
                    ),
                    ("hard", Json::Bool(a.hard)),
                    ("ok", Json::Bool(a.ok())),
                ]),
            ));
        }
        let mut text = obj(doc).render();
        text.push('\n');
        text
    }

    /// Parse an `lbmf-pmu/1` document, enforcing the same degradation
    /// contract the BENCH schema does: `tsc` must carry a reason, `perf`
    /// must not. The derived `read_asymmetry` block is ignored — it is
    /// recomputed from the rows.
    pub fn parse(text: &str) -> Result<PmuReport, String> {
        let v = lbmf_trace::json::parse(text)?;
        match v.get("schema").and_then(Json::as_str) {
            Some(PMU_SCHEMA) => {}
            Some(other) => return Err(format!("unsupported pmu schema {other:?}")),
            None => return Err("missing \"schema\"".into()),
        }
        let source_text = v
            .get("source")
            .and_then(Json::as_str)
            .ok_or("missing \"source\"")?;
        let source =
            PmuSource::parse(source_text).ok_or_else(|| format!("unknown pmu source {source_text:?}"))?;
        let degraded_reason = v
            .get("degraded_reason")
            .map(|r| r.as_str().map(str::to_string).ok_or("non-string \"degraded_reason\""))
            .transpose()?;
        match (source, &degraded_reason) {
            (PmuSource::Tsc, None) => {
                return Err("tsc source without degraded_reason: the fallback must be surfaced".into())
            }
            (PmuSource::Perf, Some(_)) => {
                return Err("perf source must not carry a degraded_reason".into())
            }
            _ => {}
        }
        let quick = matches!(v.get("quick"), Some(Json::Bool(true)));
        let mut rows = Vec::new();
        for r in v.get("rows").and_then(Json::as_arr).ok_or("missing \"rows\"")? {
            let name = r
                .get("name")
                .and_then(Json::as_str)
                .ok_or("row missing \"name\"")?
                .to_string();
            let reading = pmu_from_json(r.get("pmu").ok_or("row missing \"pmu\"")?, &name)?;
            rows.push(PmuRow {
                name,
                strategy: r.get("strategy").and_then(Json::as_str).map(str::to_string),
                reading,
            });
        }
        Ok(PmuReport { source, degraded_reason, quick, rows })
    }

    /// Prometheus exposition rendering, through the shared renderer.
    /// The renderer's gauges are integral, so per-op rates are exported
    /// in milli-units (`*_milli`, value = rate × 1000); degradation is
    /// its own family so a scrape can never lose the reason.
    pub fn render_prometheus(&self) -> String {
        use lbmf_trace::prometheus::render_gauge_family;
        let milli = |v: f64| (v * 1000.0).round() as u64;
        let labels: Vec<[(&str, &str); 3]> = self
            .rows
            .iter()
            .map(|r| {
                [
                    ("bench", r.name.as_str()),
                    ("source", self.source.name()),
                    ("strategy", r.strategy.as_deref().unwrap_or("")),
                ]
            })
            .collect();
        let mut out = String::new();
        let family = |out: &mut String, name: &str, help: &str, vals: Vec<Option<u64>>| {
            let samples: Vec<(&[(&str, &str)], u64)> = labels
                .iter()
                .zip(&vals)
                .filter_map(|(l, v)| v.map(|v| (l.as_slice(), v)))
                .collect();
            if !samples.is_empty() {
                render_gauge_family(out, name, help, &samples);
            }
        };
        let rows = &self.rows;
        family(
            &mut out,
            "lbmf_pmu_ops",
            "Operations the counter scopes covered",
            rows.iter().map(|r| Some(r.reading.ops)).collect(),
        );
        family(
            &mut out,
            "lbmf_pmu_cycles_per_op_milli",
            "Cycles per operation, milli-units",
            rows.iter().map(|r| Some(milli(r.reading.cycles_per_op))).collect(),
        );
        family(
            &mut out,
            "lbmf_pmu_instructions_per_op_milli",
            "Retired instructions per operation, milli-units",
            rows.iter().map(|r| r.reading.instructions_per_op.map(milli)).collect(),
        );
        family(
            &mut out,
            "lbmf_pmu_ipc_milli",
            "Instructions per cycle, milli-units",
            rows.iter().map(|r| r.reading.ipc.map(milli)).collect(),
        );
        family(
            &mut out,
            "lbmf_pmu_cache_misses_per_op_milli",
            "Cache misses per operation, milli-units",
            rows.iter().map(|r| r.reading.cache_misses_per_op.map(milli)).collect(),
        );
        family(
            &mut out,
            "lbmf_pmu_stalled_frontend_per_op_milli",
            "Frontend-stalled cycles per operation, milli-units",
            rows.iter().map(|r| r.reading.stalled_frontend_per_op.map(milli)).collect(),
        );
        family(
            &mut out,
            "lbmf_pmu_stalled_backend_per_op_milli",
            "Backend-stalled cycles per operation, milli-units",
            rows.iter().map(|r| r.reading.stalled_backend_per_op.map(milli)).collect(),
        );
        let degraded_labels = [
            ("reason", self.degraded_reason.as_deref().unwrap_or("")),
            ("source", self.source.name()),
        ];
        render_gauge_family(
            &mut out,
            "lbmf_pmu_degraded",
            "1 when the session fell back to rdtscp, with the reason",
            &[(degraded_labels.as_slice(), u64::from(self.degraded_reason.is_some()))],
        );
        out
    }

    /// Reassemble a report from parsed exposition samples (the inverse
    /// of [`render_prometheus`](Self::render_prometheus), at milli-unit
    /// precision). Enforces the degradation contract: `tsc` rows whose
    /// scrape lost the reason are an error, not silently clean data.
    pub fn from_exposition(samples: &[Sample]) -> Result<PmuReport, String> {
        #[derive(Default)]
        struct Acc {
            ops: u64,
            cycles: Option<f64>,
            instructions: Option<f64>,
            ipc: Option<f64>,
            cache_misses: Option<f64>,
            stalled_frontend: Option<f64>,
            stalled_backend: Option<f64>,
        }
        let mut by_key: BTreeMap<(usize, String), Acc> = BTreeMap::new();
        let mut source: Option<PmuSource> = None;
        let mut degraded_reason: Option<String> = None;
        let note_source = |text: Option<&str>, source: &mut Option<PmuSource>| -> Result<(), String> {
            let Some(text) = text else { return Ok(()) };
            let s = PmuSource::parse(text).ok_or_else(|| format!("unknown pmu source {text:?}"))?;
            match source {
                None => *source = Some(s),
                Some(prev) if *prev != s => {
                    return Err("mixed pmu sources in one exposition are not reassemblable".into())
                }
                Some(_) => {}
            }
            Ok(())
        };
        for s in samples {
            if !s.name.starts_with("lbmf_pmu_") {
                continue;
            }
            note_source(s.label("source"), &mut source)?;
            if s.name == "lbmf_pmu_degraded" {
                if s.value != 0.0 {
                    degraded_reason = Some(s.label("reason").unwrap_or("").to_string());
                }
                continue;
            }
            let bench = s
                .label("bench")
                .ok_or_else(|| format!("{} sample without a bench label", s.name))?;
            // Key by first-sight index so the table reads back in suite
            // order, not alphabetically.
            let next = by_key.len();
            let key = by_key
                .keys()
                .find(|(_, b)| b == bench)
                .cloned()
                .unwrap_or_else(|| (next, bench.to_string()));
            let acc = by_key.entry(key).or_default();
            let milli = s.value / 1000.0;
            match s.name.as_str() {
                "lbmf_pmu_ops" => acc.ops = s.value as u64,
                "lbmf_pmu_cycles_per_op_milli" => acc.cycles = Some(milli),
                "lbmf_pmu_instructions_per_op_milli" => acc.instructions = Some(milli),
                "lbmf_pmu_ipc_milli" => acc.ipc = Some(milli),
                "lbmf_pmu_cache_misses_per_op_milli" => acc.cache_misses = Some(milli),
                "lbmf_pmu_stalled_frontend_per_op_milli" => acc.stalled_frontend = Some(milli),
                "lbmf_pmu_stalled_backend_per_op_milli" => acc.stalled_backend = Some(milli),
                other => return Err(format!("unknown lbmf_pmu family {other:?}")),
            }
        }
        // Second pass for strategy labels (every family carries them).
        let mut strategies: BTreeMap<String, String> = BTreeMap::new();
        for s in samples {
            if let (true, Some(bench), Some(strategy)) = (
                s.name.starts_with("lbmf_pmu_"),
                s.label("bench"),
                s.label("strategy"),
            ) {
                if !strategy.is_empty() {
                    strategies.insert(bench.to_string(), strategy.to_string());
                }
            }
        }
        let source = source.unwrap_or(PmuSource::Tsc);
        if source == PmuSource::Tsc && !by_key.is_empty() && degraded_reason.is_none() {
            return Err("tsc rows without a surfaced degradation reason".into());
        }
        let rows = by_key
            .into_iter()
            .map(|((_, name), acc)| {
                let cycles_per_op = acc
                    .cycles
                    .ok_or_else(|| format!("bench {name:?} has no cycles_per_op family"))?;
                Ok(PmuRow {
                    strategy: strategies.get(&name).cloned(),
                    reading: PmuReading {
                        source,
                        degraded_reason: degraded_reason.clone(),
                        ops: acc.ops,
                        cycles_per_op,
                        instructions_per_op: acc.instructions,
                        ipc: acc.ipc,
                        cache_misses_per_op: acc.cache_misses,
                        stalled_frontend_per_op: acc.stalled_frontend,
                        stalled_backend_per_op: acc.stalled_backend,
                    },
                    name,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(PmuReport { source, degraded_reason, quick: false, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbmf_trace::prometheus;

    fn reading(
        source: PmuSource,
        cycles: f64,
        backend: Option<f64>,
        ops: u64,
    ) -> PmuReading {
        PmuReading {
            source,
            degraded_reason: (source == PmuSource::Tsc)
                .then(|| "perf_event_open(cpu-cycles): ENOENT (-2)".to_string()),
            ops,
            cycles_per_op: cycles,
            instructions_per_op: Some(cycles * 0.5),
            ipc: Some(0.5),
            cache_misses_per_op: None,
            stalled_frontend_per_op: None,
            stalled_backend_per_op: backend,
        }
    }

    fn synthetic(source: PmuSource, sym_stall: Option<f64>, sig_stall: Option<f64>) -> PmuReport {
        PmuReport {
            source,
            degraded_reason: (source == PmuSource::Tsc)
                .then(|| "perf_event_open(cpu-cycles): ENOENT (-2)".to_string()),
            quick: true,
            rows: vec![
                PmuRow {
                    name: "store/get/symmetric".into(),
                    strategy: Some("symmetric-mfence".into()),
                    reading: reading(source, 60.0, sym_stall, 1000),
                },
                PmuRow {
                    name: "store/get/signal".into(),
                    strategy: Some("lbmf-signal".into()),
                    reading: reading(source, 20.0, sig_stall, 1000),
                },
                PmuRow {
                    name: "fence/full_fence".into(),
                    strategy: None,
                    reading: reading(source, 6.0, None, 1000),
                },
            ],
        }
    }

    #[test]
    fn the_suite_runs_under_counters_and_every_row_reports() {
        // Forced tsc so the test is deterministic on any host.
        let mut session = PmuSession::tsc("forced by test");
        let report = run_with(&mut session, true);
        assert_eq!(report.source, PmuSource::Tsc);
        assert_eq!(report.degraded_reason.as_deref(), Some("forced by test"));
        let names: Vec<&str> = report.rows.iter().map(|r| r.name.as_str()).collect();
        for expect in [
            "dekker_entry/symmetric",
            "dekker_entry/signal",
            "dekker_entry/no_fence",
            "fence/full_fence",
            "fence/compiler_fence",
            "store/get/symmetric",
            "store/get/signal",
            "serialize/signal_roundtrip",
            "steal/fib_test",
            "store/put/signal",
        ] {
            assert!(names.contains(&expect), "missing {expect}: {names:?}");
        }
        for r in &report.rows {
            assert!(r.reading.ops > 0, "{}: ops recorded", r.name);
            assert!(r.reading.cycles_per_op > 0.0, "{}: cycles attributed", r.name);
            assert_eq!(r.reading.source, PmuSource::Tsc);
        }
        let a = report.read_asymmetry().expect("both store/get rows present");
        assert!(!a.hard, "tsc verdicts are never hard");
        let text = report.render();
        assert!(text.contains("degraded: forced by test"), "{text}");
        assert!(text.contains("read asymmetry"), "{text}");
        assert!(text.contains("[advisory: tsc fallback]"), "{text}");
    }

    #[test]
    fn asymmetry_prefers_stall_counters_and_hardens_only_under_perf() {
        let perf = synthetic(PmuSource::Perf, Some(40.0), Some(2.0));
        let a = perf.read_asymmetry().unwrap();
        assert_eq!(a.metric, "stalled-backend/op");
        assert!(a.hard && a.ok(), "{a:?}");
        assert!(perf.render().contains("[hard]"));

        // One-sided stall data falls back to cycles.
        let mixed = synthetic(PmuSource::Perf, Some(40.0), None);
        assert_eq!(mixed.read_asymmetry().unwrap().metric, "cycles/op");

        let flat = synthetic(PmuSource::Perf, Some(2.0), Some(2.0));
        let a = flat.read_asymmetry().unwrap();
        assert!(!a.ok(), "1.0x is not measurably more: {a:?}");
    }

    #[test]
    fn json_round_trips_and_enforces_the_degradation_contract() {
        let report = synthetic(PmuSource::Tsc, None, None);
        let text = report.render_json();
        assert!(text.contains("\"schema\":\"lbmf-pmu/1\""), "{text}");
        assert!(text.contains("\"read_asymmetry\""), "{text}");
        let back = PmuReport::parse(&text).unwrap();
        assert_eq!(back.rows.len(), 3);
        assert_eq!(back.rows[0].reading, report.rows[0].reading);
        assert_eq!(back.rows[2].strategy, None);
        assert_eq!(back.render_json(), text, "re-render is stable");

        // tsc without a reason must not parse.
        let silent = text.replace(",\"degraded_reason\":\"perf_event_open(cpu-cycles): ENOENT (-2)\"", "");
        let e = PmuReport::parse(&silent).unwrap_err();
        assert!(e.contains("surfaced"), "{e}");
    }

    #[test]
    fn prometheus_export_reassembles_including_the_degradation_reason() {
        let report = synthetic(PmuSource::Tsc, Some(40.5), Some(2.25));
        let text = report.render_prometheus();
        assert!(text.contains("lbmf_pmu_cycles_per_op_milli"), "{text}");
        assert!(text.contains("lbmf_pmu_degraded"), "{text}");
        assert!(text.contains("ENOENT"), "the reason must survive export: {text}");
        let back = PmuReport::from_exposition(&prometheus::parse(&text).unwrap()).unwrap();
        assert_eq!(back.source, PmuSource::Tsc);
        assert_eq!(
            back.degraded_reason.as_deref(),
            Some("perf_event_open(cpu-cycles): ENOENT (-2)")
        );
        assert_eq!(back.rows.len(), 3);
        let sym = back.rows.iter().find(|r| r.name == "store/get/symmetric").unwrap();
        assert_eq!(sym.reading.ops, 1000);
        assert!((sym.reading.cycles_per_op - 60.0).abs() < 1e-9);
        assert_eq!(sym.reading.stalled_backend_per_op, Some(40.5));
        assert_eq!(sym.strategy.as_deref(), Some("symmetric-mfence"));
        let fence = back.rows.iter().find(|r| r.name == "fence/full_fence").unwrap();
        assert_eq!(fence.strategy, None, "empty strategy label reads back as none");
        let a = back.read_asymmetry().unwrap();
        assert_eq!(a.metric, "stalled-backend/op");
        assert!(a.ok() && !a.hard);
    }

    #[test]
    fn exposition_without_pmu_families_is_vacuous_and_lossy_tsc_is_rejected() {
        let samples = prometheus::parse("lbmf_store_shard_epoch{store=\"s\",shard=\"0\"} 1\n").unwrap();
        let report = PmuReport::from_exposition(&samples).unwrap();
        assert!(report.is_vacuous());

        // A scrape that kept tsc rows but dropped the degraded family
        // would silently launder the fallback — reject it.
        let text = "lbmf_pmu_cycles_per_op_milli{bench=\"x\",source=\"tsc\",strategy=\"\"} 1000\n";
        let e = PmuReport::from_exposition(&prometheus::parse(text).unwrap()).unwrap_err();
        assert!(e.contains("degradation"), "{e}");
    }
}
