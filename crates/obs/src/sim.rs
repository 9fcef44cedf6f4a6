//! Coherence-level observability over the cycle-accurate simulator.
//!
//! Two reports live here, both driven by `lbmf-sim` machines built from the
//! paper's own kernels:
//!
//! - [`traffic_report`] runs the Dekker handoff under dueling `l-mfence`s
//!   and under symmetric `mfence`s and rolls up the bus traffic each
//!   strategy generates — per `(op, cause)` transaction counts plus a
//!   serialization-cost breakdown (who paid cycles to order the guarded
//!   store, and through which mechanism).
//! - [`CalibrationReport::run`] is the cross-simulator calibration pass:
//!   it replays distilled Dekker-handoff and steal-probe kernels on the
//!   cycle machine, reads the per-transition cycle charges back out of
//!   [`Machine::apply`], and compares them against the corresponding
//!   [`DesCosts`] table entries the discrete-event models take on faith.
//!   Entries the simulated hardware cannot express (signal and
//!   `membarrier(2)` round trips, lock handoffs) are reported as
//!   unmeasured rather than silently skipped.
//!
//! The calibration report serializes under [`crate::schema::CALIB_SCHEMA`]
//! so CI can archive it next to the benchmark reports and gate on drift:
//! if someone retunes `CostModel` without re-anchoring `DesCosts` (or vice
//! versa), the per-entry delta leaves the tolerance band and the gate
//! trips.

use crate::schema::{check_schema, CALIB_SCHEMA};
use lbmf_des::costs::DesCosts;
use lbmf_sim::prelude::*;
use lbmf_trace::json::{self, obj, Json};
use std::collections::BTreeMap;

// ----------------------------------------------------------------------
// Traffic attribution
// ----------------------------------------------------------------------

/// Bus traffic and serialization costs of one fence strategy's Dekker run.
#[derive(Clone, Debug)]
pub struct StrategyTraffic {
    /// Strategy label (`l-mfence` / `mfence`).
    pub label: String,
    /// Slowest CPU's cycle clock at completion.
    pub makespan: u64,
    /// Raw bus/coherence/link counters.
    pub stats: lbmf_sim::bus::BusStats,
    /// `(bus op, causing instruction class) -> transactions`, folded from
    /// the per-event attribution in the trace.
    pub by_cause: BTreeMap<(String, String), u64>,
    /// Cycles spent purely on serializing guarded stores.
    pub serialization_cycles: u64,
    /// How many serialization events that cost is spread over.
    pub serializations: u64,
    /// Which party pays the serialization cycles.
    pub paid_by: &'static str,
    /// Prometheus exposition of `stats` (for `--prometheus`).
    pub prometheus: String,
}

fn run_strategy(kinds: [FenceKind; 2], label: &str, iters: u64) -> StrategyTraffic {
    let opts = DekkerOptions {
        iters,
        cs_mem_ops: true,
        cs_work: 2,
    };
    let mut m = Machine::new(
        MachineConfig::default(),
        CostModel::default(),
        dekker_pair_with_turn(kinds, opts),
    );
    // The generous drain delay keeps guarded stores buffered across the
    // race window so the link-break machinery is actually exercised.
    assert!(m.run_pseudo_parallel(40, 10_000_000), "dekker run did not finish");
    m.flush_all();
    let mut by_cause: BTreeMap<(String, String), u64> = BTreeMap::new();
    for e in m.trace.iter() {
        if let EventKind::BusTransaction { op, cause, .. } = e.kind {
            *by_cause.entry((format!("{op:?}"), format!("{cause}"))).or_insert(0) += 1;
        }
    }
    let (serializations, serialization_cycles, paid_by) = match kinds[0] {
        FenceKind::Lmfence => (
            m.stats.link_breaks_remote,
            m.stats.link_breaks_remote * (m.cost.cache_to_cache + m.cost.lest_roundtrip),
            "requester (LE/ST round trip)",
        ),
        _ => (
            m.stats.mfences,
            m.stats.mfences * m.cost.mfence_base,
            "victim (full fence per pop)",
        ),
    };
    StrategyTraffic {
        label: label.to_string(),
        makespan: m.cpus.iter().map(|c| c.clock).max().unwrap_or(0),
        by_cause,
        serialization_cycles,
        serializations,
        paid_by,
        prometheus: lbmf_sim::bus::prometheus(&m.stats),
        stats: m.stats,
    }
}

/// Run the Dekker-with-turn kernel under both fence strategies and return
/// the per-strategy traffic attribution (`l-mfence` first).
pub fn traffic_report(iters: u64) -> [StrategyTraffic; 2] {
    [
        run_strategy([FenceKind::Lmfence, FenceKind::Lmfence], "l-mfence", iters),
        run_strategy([FenceKind::Mfence, FenceKind::Mfence], "mfence", iters),
    ]
}

/// Render the traffic comparison as an aligned text report.
pub fn render_traffic(strategies: &[StrategyTraffic]) -> String {
    let mut out = String::new();
    out.push_str("coherence traffic by fence strategy (Dekker handoff)\n");
    for s in strategies {
        out.push_str(&format!(
            "\n[{}] makespan {} cycles, {} bus transactions\n",
            s.label,
            s.makespan,
            s.stats.total_transactions()
        ));
        out.push_str("  bus traffic by causing instruction class:\n");
        for ((op, cause), n) in &s.by_cause {
            out.push_str(&format!("    {op:<10} {cause:<15} {n:>6}\n"));
        }
        out.push_str("  link clears by reason:\n");
        for (reason, n) in s.stats.link_clear_tallies() {
            if n > 0 {
                out.push_str(&format!("    {reason:<26} {n:>6}\n"));
            }
        }
        out.push_str(&format!(
            "  serialization: {} events, {} cycles, paid by {}\n",
            s.serializations, s.serialization_cycles, s.paid_by
        ));
    }
    if let [le, mf] = strategies {
        out.push_str(&format!(
            "\nserialization cycles: l-mfence {} (requester-side) vs mfence {} (victim-side)\n",
            le.serialization_cycles, mf.serialization_cycles
        ));
        let saved = mf.makespan as i64 - le.makespan as i64;
        out.push_str(&format!(
            "makespan: l-mfence {} vs mfence {} cycles ({saved:+} saved by l-mfence)\n",
            le.makespan, mf.makespan
        ));
    }
    out
}

// ----------------------------------------------------------------------
// Calibration
// ----------------------------------------------------------------------

/// One DES cost-table entry checked against a measured sim kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct CalibEntry {
    /// `DesCosts` field name.
    pub name: String,
    /// Which kernel produced the measurement.
    pub kernel: String,
    /// The cycles the DES cost table charges.
    pub des_cycles: u64,
    /// The cycles the cycle machine actually charged.
    pub sim_cycles: u64,
    /// `(sim - des) / des`, in percent.
    pub delta_pct: f64,
    /// Whether `|delta_pct|` is within the report's tolerance.
    pub within: bool,
}

/// The DES-vs-sim calibration report (`lbmf-obs calibrate`).
#[derive(Clone, Debug, PartialEq)]
pub struct CalibrationReport {
    /// Allowed per-entry divergence, in percent.
    pub tolerance_pct: f64,
    /// Measured entries.
    pub entries: Vec<CalibEntry>,
    /// `(name, des_cycles)` of cost-table entries the simulated hardware
    /// cannot measure (OS mechanisms: signals, membarrier, locks).
    pub unmeasured: Vec<(String, u64)>,
}

/// Drive CPU `i` until `probe(&machine)` changes, returning the cycle
/// charge of the step where it did.
fn step_until_changed<F: Fn(&Machine) -> u64>(m: &mut Machine, i: usize, probe: F) -> u64 {
    let before = probe(m);
    for _ in 0..64 {
        assert!(!m.cpus[i].halted, "cpu{i} halted before the probe changed");
        let cost = m.apply(Transition::Step(i));
        if probe(m) != before {
            return cost;
        }
    }
    panic!("probe did not change within 64 steps");
}

/// Dekker handoff: CPU 0 publishes its flag and fences; CPU 1 reads it.
/// Measures `mfence` (the fence completing over an empty store buffer) and
/// `cache_to_cache` (the partner pulling the flag line from Modified).
fn dekker_handoff() -> [(&'static str, u64); 2] {
    let mut w = ProgramBuilder::new("dekker-writer");
    w.st(Addr(1), 1u64).mfence().halt();
    let mut r = ProgramBuilder::new("dekker-reader");
    r.ld(0, Addr(1)).halt();
    let mut m = Machine::new(
        MachineConfig::default(),
        CostModel::default(),
        vec![w.build(), r.build()],
    );
    let mfence = step_until_changed(&mut m, 0, |m| m.stats.mfences);
    assert_eq!(m.stats.mfences, 1);
    let c2c = step_until_changed(&mut m, 1, |m| m.stats.cache_to_cache);
    assert_eq!(m.stats.link_breaks_remote, 0, "no link to break in the handoff");
    [("mfence", mfence), ("cache_to_cache", c2c)]
}

/// Steal probe: the victim guards its flag store with an `l-mfence`; the
/// thief's probe load breaks the link. Measures
/// `serialize_requester_lest` — the full charge on the thief's load
/// (cache-to-cache transfer plus the LE/ST round trip).
fn steal_probe_requester() -> [(&'static str, u64); 1] {
    let mut v = ProgramBuilder::new("steal-victim");
    v.lmfence(Addr(1), 1u64).halt();
    let mut t = ProgramBuilder::new("steal-thief");
    t.ld(0, Addr(1)).halt();
    let mut m = Machine::new(
        MachineConfig::default(),
        CostModel::default(),
        vec![v.build(), t.build()],
    );
    // Run the victim through K1.4: link set, guarded store buffered.
    for _ in 0..4 {
        m.apply(Transition::Step(0));
    }
    assert!(m.cpus[0].le_bit, "victim's link must be set before the probe");
    let probe = step_until_changed(&mut m, 1, |m| m.stats.link_breaks_remote);
    assert_eq!(m.stats.link_breaks_remote, 1);
    [("serialize_requester_lest", probe)]
}

/// Steal probe, victim side: the forced flush drains the guarded store to
/// a line the victim already owns. Measures `serialize_victim_lest` as the
/// charge of exactly such an owned-line drain (the second fence's drain,
/// after the first store made the line Modified).
fn steal_probe_victim() -> [(&'static str, u64); 1] {
    let mut b = ProgramBuilder::new("steal-victim-drain");
    b.st(Addr(5), 1u64).mfence().st(Addr(5), 2u64).mfence().halt();
    let mut m = Machine::new(MachineConfig::default(), CostModel::default(), vec![b.build()]);
    step_until_changed(&mut m, 0, |m| m.stats.mfences);
    assert_eq!(m.stats.store_completions, 1);
    let drain = step_until_changed(&mut m, 0, |m| m.stats.store_completions);
    [("serialize_victim_lest", drain)]
}

impl CalibrationReport {
    /// Run the calibration kernels and compare against
    /// [`DesCosts::default`].
    pub fn run(tolerance_pct: f64) -> CalibrationReport {
        let mut measured: BTreeMap<&'static str, (&'static str, u64)> = BTreeMap::new();
        for (name, cycles) in dekker_handoff() {
            measured.insert(name, ("dekker-handoff", cycles));
        }
        for (name, cycles) in steal_probe_requester() {
            measured.insert(name, ("steal-probe", cycles));
        }
        for (name, cycles) in steal_probe_victim() {
            measured.insert(name, ("steal-probe", cycles));
        }
        let des = DesCosts::default();
        let mut entries = Vec::new();
        for (name, des_cycles) in des.calibratable_entries() {
            let (kernel, sim_cycles) = measured
                .remove(name)
                .unwrap_or_else(|| panic!("no kernel measures DES entry `{name}`"));
            let delta_pct = if des_cycles == 0 {
                if sim_cycles == 0 { 0.0 } else { f64::INFINITY }
            } else {
                (sim_cycles as f64 - des_cycles as f64) / des_cycles as f64 * 100.0
            };
            entries.push(CalibEntry {
                name: name.to_string(),
                kernel: kernel.to_string(),
                des_cycles,
                sim_cycles,
                delta_pct,
                within: delta_pct.abs() <= tolerance_pct,
            });
        }
        assert!(measured.is_empty(), "measured entries {measured:?} missing from DES table");
        let unmeasured = vec![
            ("compiler_fence".to_string(), des.compiler_fence),
            ("serialize_requester_signal".to_string(), des.serialize_requester_signal),
            ("serialize_requester_membarrier".to_string(), des.serialize_requester_membarrier),
            ("serialize_victim_signal".to_string(), des.serialize_victim_signal),
            ("serialize_victim_membarrier".to_string(), des.serialize_victim_membarrier),
            ("lock".to_string(), des.lock),
        ];
        CalibrationReport { tolerance_pct, entries, unmeasured }
    }

    /// Every measured entry within tolerance?
    pub fn all_within(&self) -> bool {
        self.entries.iter().all(|e| e.within)
    }

    /// Human-readable calibration table with the per-entry verdicts.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "DES cost-table calibration against lbmf-sim (tolerance ±{:.1}%)\n",
            self.tolerance_pct
        ));
        out.push_str(&format!(
            "  {:<26} {:<15} {:>6} {:>6} {:>9}  verdict\n",
            "entry", "kernel", "des", "sim", "delta"
        ));
        for e in &self.entries {
            out.push_str(&format!(
                "  {:<26} {:<15} {:>6} {:>6} {:>8.2}%  {}\n",
                e.name,
                e.kernel,
                e.des_cycles,
                e.sim_cycles,
                e.delta_pct,
                if e.within { "within" } else { "DIVERGED" }
            ));
        }
        for (name, cycles) in &self.unmeasured {
            out.push_str(&format!(
                "  {name:<26} {:<15} {cycles:>6}      -         -  unmeasured (OS mechanism)\n",
                "-"
            ));
        }
        out.push_str(&format!(
            "verdict: {}\n",
            if self.all_within() { "CALIBRATED" } else { "DIVERGED" }
        ));
        out
    }

    /// Machine-readable form under [`CALIB_SCHEMA`].
    pub fn render_json(&self) -> String {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                obj(vec![
                    ("name", Json::Str(e.name.clone())),
                    ("kernel", Json::Str(e.kernel.clone())),
                    ("des_cycles", Json::Num(e.des_cycles as f64)),
                    ("sim_cycles", Json::Num(e.sim_cycles as f64)),
                    ("delta_pct", Json::Num(e.delta_pct)),
                    ("within", Json::Bool(e.within)),
                ])
            })
            .collect();
        let unmeasured = self
            .unmeasured
            .iter()
            .map(|(name, cycles)| {
                obj(vec![
                    ("name", Json::Str(name.clone())),
                    ("des_cycles", Json::Num(*cycles as f64)),
                ])
            })
            .collect();
        obj(vec![
            ("schema", Json::Str(CALIB_SCHEMA.to_string())),
            ("tolerance_pct", Json::Num(self.tolerance_pct)),
            ("all_within", Json::Bool(self.all_within())),
            ("entries", Json::Arr(entries)),
            ("unmeasured", Json::Arr(unmeasured)),
        ])
        .render()
    }

    /// Parse a report previously written by [`CalibrationReport::render_json`].
    pub fn parse(text: &str) -> Result<CalibrationReport, String> {
        let root = json::parse(text)?;
        check_schema(&root, CALIB_SCHEMA)?;
        let tolerance_pct = root
            .get("tolerance_pct")
            .and_then(Json::as_f64)
            .ok_or("missing tolerance_pct")?;
        let need_u64 = |j: &Json, key: &str| -> Result<u64, String> {
            j.get(key).and_then(Json::as_u64).ok_or(format!("missing {key}"))
        };
        let need_str = |j: &Json, key: &str| -> Result<String, String> {
            Ok(j.get(key).and_then(Json::as_str).ok_or(format!("missing {key}"))?.to_string())
        };
        let mut entries = Vec::new();
        for e in root.get("entries").and_then(Json::as_arr).ok_or("missing entries")? {
            entries.push(CalibEntry {
                name: need_str(e, "name")?,
                kernel: need_str(e, "kernel")?,
                des_cycles: need_u64(e, "des_cycles")?,
                sim_cycles: need_u64(e, "sim_cycles")?,
                delta_pct: e.get("delta_pct").and_then(Json::as_f64).ok_or("missing delta_pct")?,
                within: matches!(e.get("within"), Some(Json::Bool(true))),
            });
        }
        let mut unmeasured = Vec::new();
        for u in root.get("unmeasured").and_then(Json::as_arr).ok_or("missing unmeasured")? {
            unmeasured.push((need_str(u, "name")?, need_u64(u, "des_cycles")?));
        }
        Ok(CalibrationReport { tolerance_pct, entries, unmeasured })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_deltas_are_zero_at_defaults() {
        let r = CalibrationReport::run(10.0);
        assert_eq!(r.entries.len(), 4);
        for e in &r.entries {
            assert_eq!(
                e.sim_cycles, e.des_cycles,
                "{}: sim {} != des {} (measured by {})",
                e.name, e.sim_cycles, e.des_cycles, e.kernel
            );
            assert_eq!(e.delta_pct, 0.0);
            assert!(e.within);
        }
        assert!(r.all_within());
        assert_eq!(r.unmeasured.len(), 6);
    }

    #[test]
    fn calibration_json_round_trips() {
        let r = CalibrationReport::run(5.0);
        let back = CalibrationReport::parse(&r.render_json()).unwrap();
        assert_eq!(back, r);
        assert!(CalibrationReport::parse("{\"schema\":\"nope/9\"}").is_err());
    }

    #[test]
    fn render_text_carries_the_verdict() {
        let mut r = CalibrationReport::run(10.0);
        assert!(r.render_text().contains("verdict: CALIBRATED"));
        r.entries[0].within = false;
        assert!(r.render_text().contains("DIVERGED"));
    }

    #[test]
    fn traffic_report_attributes_both_strategies() {
        let [le, mf] = traffic_report(3);
        assert_eq!(le.label, "l-mfence");
        assert_eq!(mf.label, "mfence");
        assert!(le.serializations > 0, "l-mfence run must break links remotely");
        assert!(mf.serializations > 0, "mfence run must complete fences");
        assert!(le.stats.mfences <= mf.stats.mfences, "l-mfence must not fence more often");
        // The by-cause rollup conserves the stats totals.
        for s in [&le, &mf] {
            assert_eq!(
                s.by_cause.values().sum::<u64>(),
                s.stats.total_transactions(),
                "{}: by-cause rollup must conserve transactions",
                s.label
            );
            assert!(s.prometheus.contains("lbmf_sim_bus_ops_total"));
        }
        let text = render_traffic(&[le, mf]);
        assert!(text.contains("serialization cycles: l-mfence"));
        assert!(text.contains("makespan: l-mfence"));
        assert!(text.contains("store-drain") || text.contains("load-exclusive"));
    }
}
