//! The `heat` subcommand's library half: reassemble the workload-heat
//! gauge families (`lbmf_store_hotkey_*` / `lbmf_store_skew_*`) from
//! exposition text and report on them.
//!
//! Dual-source by construction, mirroring `doctor`: the text can come
//! from a live `/metrics` scrape of an armed store or from a DES
//! `kv_sim` heat dump — both render the same schema (single-sourced in
//! `lbmf_des::kv_sim`), so one parser serves both. Parsing rebuilds a
//! full [`HeatSnapshot`] per `store` label and lets *it* re-derive the
//! θ estimate and the imbalance number through the exact math the
//! producers used — the report never trusts a derived gauge it can
//! recompute from the raw spectrum, so a snapshot edited by hand (or a
//! producer/consumer version skew) shows up as a visible disagreement
//! rather than a silently propagated stale value.

use lbmf_des::kv_sim::{
    GAUGE_HOTKEY_READS, GAUGE_HOTKEY_READ_ERR, GAUGE_HOTKEY_SERIALIZE_BILL, GAUGE_HOTKEY_WRITES,
    GAUGE_SKEW_SAMPLE_EVERY, GAUGE_SKEW_SHARD_READS, GAUGE_SKEW_SHARD_WRITES,
};
use lbmf_des::{HeatSnapshot, ShardLoad};
use lbmf_trace::prometheus::Sample;
use lbmf_trace::HotKey;
use std::collections::BTreeMap;

/// A key is called *hot* when it alone carries more than this share of
/// all sampled reads, in ppm (50_000 = 5%). Under a uniform workload
/// with any realistic key count no key comes near this line, so the
/// verdict cleanly separates "skewed head" from "flat spectrum".
pub const HOT_KEY_SHARE_PPM: u64 = 50_000;

/// Shard-imbalance verdict threshold, in ppm of fair share: the report
/// calls the shard layout imbalanced when the hottest shard absorbs
/// more than 2× its fair share of sampled reads.
pub const SHARD_IMBALANCE_PPM: u64 = 2_000_000;

/// One store's reassembled heat view: the `store` label plus the
/// snapshot rebuilt from its families.
#[derive(Clone, Debug)]
pub struct StoreHeat {
    /// The `store` label the families carried.
    pub store: String,
    /// The snapshot, with θ and totals re-derived by the shared math.
    pub snapshot: HeatSnapshot,
}

impl StoreHeat {
    /// Keys whose sampled-read share exceeds [`HOT_KEY_SHARE_PPM`].
    pub fn hot_keys(&self) -> Vec<&HotKey> {
        let total = self.snapshot.sampled_reads;
        self.snapshot
            .top_reads
            .iter()
            .filter(|e| total > 0 && e.count.saturating_mul(1_000_000) / total > HOT_KEY_SHARE_PPM)
            .collect()
    }

    /// Whether the hottest shard exceeds [`SHARD_IMBALANCE_PPM`].
    pub fn imbalanced(&self) -> bool {
        self.snapshot.imbalance_ppm() > SHARD_IMBALANCE_PPM
    }
}

/// The full heat report: every store that exposed heat families in the
/// scraped text, label order.
#[derive(Clone, Debug, Default)]
pub struct HeatReport {
    /// Per-store views, sorted by store label.
    pub stores: Vec<StoreHeat>,
}

// Intermediate per-store accumulation while walking the sample list.
#[derive(Default)]
struct Partial {
    sample_every: Option<u64>,
    // rank → (key, count, err)
    reads: BTreeMap<u64, (u64, u64, u64)>,
    writes: Vec<(u64, u64)>,
    bills: Vec<(u64, u64)>,
    // shard → (sampled_reads, writes)
    shards: BTreeMap<u64, (u64, u64)>,
}

fn label_u64(s: &Sample, key: &str) -> Result<u64, String> {
    let v = s
        .label(key)
        .ok_or_else(|| format!("{}: missing {key:?} label", s.name))?;
    v.parse()
        .map_err(|_| format!("{}: {key}={v:?} is not an integer", s.name))
}

fn sorted_keys(mut v: Vec<(u64, u64)>) -> Vec<HotKey> {
    // Renderers emit these in rank order already, but a relabeled or
    // concatenated snapshot may not; re-sort to the canonical order.
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.into_iter()
        .map(|(key, count)| HotKey { key, count, err: 0 })
        .collect()
}

/// Group the heat families by `store` label and rebuild one
/// [`HeatSnapshot`] per store. Samples from other families (shard
/// health, fence counters, ...) are ignored, so this reads a combined
/// `/metrics` payload as happily as a bare heat dump. Returns an error
/// on malformed heat samples (missing/non-integer labels, duplicate
/// ranks) — a scrape that is wrong must not become a quiet zero.
pub fn assemble(samples: &[Sample]) -> Result<HeatReport, String> {
    let mut by_store: BTreeMap<String, Partial> = BTreeMap::new();
    for s in samples {
        if !s.name.starts_with("lbmf_store_hotkey_") && !s.name.starts_with("lbmf_store_skew_") {
            continue;
        }
        let store = s
            .label("store")
            .ok_or_else(|| format!("{}: missing \"store\" label", s.name))?
            .to_string();
        let p = by_store.entry(store).or_default();
        let value = s.value.round() as u64;
        match s.name.as_str() {
            GAUGE_SKEW_SAMPLE_EVERY => p.sample_every = Some(value.max(1)),
            GAUGE_HOTKEY_READS | GAUGE_HOTKEY_READ_ERR => {
                let key = label_u64(s, "key")?;
                let rank = label_u64(s, "rank")?;
                let slot = p.reads.entry(rank).or_insert((key, 0, 0));
                if slot.0 != key {
                    return Err(format!(
                        "{}: rank {rank} claimed by both key {} and key {key}",
                        s.name, slot.0
                    ));
                }
                if s.name == GAUGE_HOTKEY_READS {
                    slot.1 = value;
                } else {
                    slot.2 = value;
                }
            }
            GAUGE_HOTKEY_WRITES => p.writes.push((label_u64(s, "key")?, value)),
            GAUGE_HOTKEY_SERIALIZE_BILL => p.bills.push((label_u64(s, "key")?, value)),
            GAUGE_SKEW_SHARD_READS => {
                p.shards.entry(label_u64(s, "shard")?).or_default().0 = value;
            }
            GAUGE_SKEW_SHARD_WRITES => {
                p.shards.entry(label_u64(s, "shard")?).or_default().1 = value;
            }
            // Derived gauges (sampled_reads, theta, write_ppm,
            // imbalance): recomputed from the raw families instead.
            _ => {}
        }
    }

    let mut stores = Vec::new();
    for (store, p) in by_store {
        let top_reads: Vec<HotKey> = p
            .reads
            .into_values()
            .map(|(key, count, err)| HotKey { key, count, err })
            .collect();
        let shards: Vec<ShardLoad> = p
            .shards
            .into_iter()
            .map(|(shard, (sampled_reads, writes))| ShardLoad {
                shard: shard as u32,
                sampled_reads,
                writes,
            })
            .collect();
        let snapshot = HeatSnapshot::new(
            p.sample_every.unwrap_or(1),
            top_reads,
            sorted_keys(p.writes),
            sorted_keys(p.bills),
            shards,
        );
        stores.push(StoreHeat { store, snapshot });
    }
    Ok(HeatReport { stores })
}

impl HeatReport {
    /// True when the text carried no heat families at all — the heat
    /// analog of the doctor's vacuous-health guard.
    pub fn is_vacuous(&self) -> bool {
        self.stores.is_empty()
    }

    /// Render the human report: per store, the θ line, the top-`top`
    /// read spectrum joined with write/serialize-bill attribution, the
    /// per-shard load table, and a one-line verdict.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        if self.is_vacuous() {
            out.push_str("no workload heat data found (is the store's heat plane armed?)\n");
            return out;
        }
        for sh in &self.stores {
            let snap = &sh.snapshot;
            out.push_str(&format!(
                "store {:?}: sampling 1-in-{}, {} sampled reads, {} shards\n",
                sh.store,
                snap.sample_every,
                snap.sampled_reads,
                snap.shards.len()
            ));
            match snap.theta {
                Some(t) => out.push_str(&format!(
                    "  zipf theta: {:.3} +/- {:.3} (MLE over {} head ranks)\n",
                    t.theta, t.std_err, t.ranks
                )),
                None => out.push_str("  zipf theta: not estimable (spectrum too thin or flat)\n"),
            }

            let writes: BTreeMap<u64, u64> =
                snap.top_writes.iter().map(|e| (e.key, e.count)).collect();
            let bills: BTreeMap<u64, u64> =
                snap.top_bills.iter().map(|e| (e.key, e.count)).collect();
            out.push_str("  rank          key        reads     (+err)   writes  ser-bill  share\n");
            for (i, e) in snap.top_reads.iter().take(top).enumerate() {
                let share_ppm = if snap.sampled_reads > 0 {
                    e.count.saturating_mul(1_000_000) / snap.sampled_reads
                } else {
                    0
                };
                out.push_str(&format!(
                    "  {:>4} {:>12} {:>12} {:>10} {:>8} {:>9} {:>5.1}%\n",
                    i + 1,
                    e.key,
                    e.count,
                    format!("+{}", e.err),
                    writes.get(&e.key).copied().unwrap_or(0),
                    bills.get(&e.key).copied().unwrap_or(0),
                    share_ppm as f64 / 10_000.0,
                ));
            }
            if snap.top_reads.len() > top {
                out.push_str(&format!(
                    "  ... {} more tracked keys (--top to widen)\n",
                    snap.top_reads.len() - top
                ));
            }

            out.push_str("  shard   sampled-reads       writes  write-ppm\n");
            for s in &snap.shards {
                out.push_str(&format!(
                    "  {:>5} {:>15} {:>12} {:>10}\n",
                    s.shard,
                    s.sampled_reads,
                    s.writes,
                    snap.shard_write_ppm(s)
                ));
            }
            out.push_str(&format!(
                "  shard imbalance: hottest shard at {:.2}x fair share ({} ppm)\n",
                snap.imbalance_ppm() as f64 / 1e6,
                snap.imbalance_ppm()
            ));

            let hot = sh.hot_keys();
            if hot.is_empty() {
                out.push_str("  verdict: no significant hot keys");
            } else {
                let keys: Vec<String> = hot.iter().take(8).map(|e| e.key.to_string()).collect();
                out.push_str(&format!(
                    "  verdict: SKEWED — {} hot key(s) above {}% of sampled reads (keys {})",
                    hot.len(),
                    HOT_KEY_SHARE_PPM / 10_000,
                    keys.join(", ")
                ));
            }
            if sh.imbalanced() {
                out.push_str("; shard-IMBALANCED\n");
            } else {
                out.push_str("; shards balanced\n");
            }
        }
        out
    }

    /// Re-render every store's families through the shared renderer —
    /// `--prometheus` passthrough that also proves the round trip: what
    /// this prints is what [`assemble`] read, normalized.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for sh in &self.stores {
            out.push_str(&sh.snapshot.render(&sh.store));
        }
        out
    }

    /// The `--expect-theta` gate: every store's θ estimate must exist
    /// and land within `tol` of `expect`. Returns the offending
    /// messages (empty = gate passes).
    pub fn theta_gate(&self, expect: f64, tol: f64) -> Vec<String> {
        let mut failures = Vec::new();
        if self.is_vacuous() {
            failures.push("no heat data to gate on".to_string());
        }
        for sh in &self.stores {
            match sh.snapshot.theta {
                Some(t) if (t.theta - expect).abs() <= tol => {}
                Some(t) => failures.push(format!(
                    "store {:?}: theta {:.3} outside {expect} +/- {tol}",
                    sh.store, t.theta
                )),
                None => failures.push(format!(
                    "store {:?}: no theta estimate (expected {expect} +/- {tol})",
                    sh.store
                )),
            }
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbmf_trace::prometheus;

    /// Expected counts of a Zipf(θ) head: `n_k ∝ k^-θ`, scaled to `n`
    /// total observations over `k_max` ranks.
    fn zipf_spectrum(theta: f64, k_max: usize, n: u64) -> Vec<u64> {
        let z: f64 = (1..=k_max).map(|k| (k as f64).powf(-theta)).sum();
        (1..=k_max)
            .map(|k| ((k as f64).powf(-theta) / z * n as f64).round() as u64)
            .collect()
    }

    fn zipfy_snapshot() -> HeatSnapshot {
        // An exact (unchurned) Zipf spectrum at θ = 0.99 over 64 ranks,
        // 100k sampled reads: key i is rank i+1.
        let spectrum = zipf_spectrum(0.99, 64, 100_000);
        let top_reads: Vec<HotKey> = spectrum
            .iter()
            .enumerate()
            .map(|(i, &count)| HotKey {
                key: i as u64,
                count,
                err: 0,
            })
            .collect();
        let total: u64 = spectrum.iter().sum();
        let shards = vec![
            ShardLoad {
                shard: 0,
                sampled_reads: total - total / 3,
                writes: 12,
            },
            ShardLoad {
                shard: 1,
                sampled_reads: total / 3,
                writes: 3,
            },
        ];
        let top_writes = vec![
            HotKey { key: 0, count: 9, err: 0 },
            HotKey { key: 7, count: 6, err: 0 },
        ];
        let top_bills = vec![HotKey { key: 0, count: 27, err: 0 }];
        HeatSnapshot::new(1, top_reads, top_writes, top_bills, shards)
    }

    #[test]
    fn render_then_assemble_round_trips_the_snapshot() {
        let snap = zipfy_snapshot();
        let text = snap.render("rt");
        let report = assemble(&prometheus::parse(&text).unwrap()).unwrap();
        assert_eq!(report.stores.len(), 1);
        let got = &report.stores[0];
        assert_eq!(got.store, "rt");
        assert_eq!(got.snapshot.sample_every, snap.sample_every);
        assert_eq!(got.snapshot.sampled_reads, snap.sampled_reads);
        assert_eq!(got.snapshot.top_reads, snap.top_reads);
        assert_eq!(got.snapshot.top_writes, snap.top_writes);
        assert_eq!(got.snapshot.top_bills, snap.top_bills);
        assert_eq!(got.snapshot.shards, snap.shards);
        // θ is *recomputed* on assembly, through the same math — the
        // estimates must agree exactly.
        let (a, b) = (snap.theta.unwrap(), got.snapshot.theta.unwrap());
        assert_eq!((a.theta, a.std_err, a.ranks), (b.theta, b.std_err, b.ranks));
        assert!((a.theta - 0.99).abs() < 0.1, "theta {}", a.theta);
        // And the passthrough renders byte-identical text.
        assert_eq!(report.render_prometheus(), text);
    }

    #[test]
    fn skewed_store_gets_a_skew_verdict_with_the_head_keys_named() {
        let report = assemble(&prometheus::parse(&zipfy_snapshot().render("skew")).unwrap()).unwrap();
        let sh = &report.stores[0];
        let hot = sh.hot_keys();
        assert!(!hot.is_empty(), "zipf 0.99 head must clear 5%");
        assert_eq!(hot[0].key, 0, "rank 1 is key 0");
        let text = report.render(10);
        assert!(text.contains("verdict: SKEWED"), "{text}");
        assert!(text.contains("keys 0"), "{text}");
        assert!(text.contains("zipf theta: 0.9"), "{text}");
        assert!(text.contains("... 54 more tracked keys"), "{text}");
    }

    #[test]
    fn flat_spectrum_reports_no_significant_hot_keys() {
        // 64 keys at ~1.5% each: nobody clears the 5% hot line, and the
        // flat spectrum fits θ ≈ 0 (below any skew call).
        let top_reads: Vec<HotKey> = (0..64)
            .map(|i| HotKey { key: i, count: 1_000, err: 0 })
            .collect();
        let shards = vec![
            ShardLoad { shard: 0, sampled_reads: 32_000, writes: 5 },
            ShardLoad { shard: 1, sampled_reads: 32_000, writes: 5 },
        ];
        let snap = HeatSnapshot::new(2, top_reads, Vec::new(), Vec::new(), shards);
        let report = assemble(&prometheus::parse(&snap.render("flat")).unwrap()).unwrap();
        let text = report.render(5);
        assert!(text.contains("verdict: no significant hot keys"), "{text}");
        assert!(text.contains("shards balanced"), "{text}");
        assert!(!report.stores[0].imbalanced());
        if let Some(t) = report.stores[0].snapshot.theta {
            assert!(t.theta < 0.2, "flat spectrum fit θ = {}", t.theta);
        }
    }

    #[test]
    fn two_stores_in_one_payload_stay_separate() {
        let a = zipfy_snapshot().render("alpha");
        let b = zipfy_snapshot().render("beta");
        let combined = format!("{a}{b}");
        let report = assemble(&prometheus::parse(&combined).unwrap()).unwrap();
        assert_eq!(report.stores.len(), 2);
        assert_eq!(report.stores[0].store, "alpha");
        assert_eq!(report.stores[1].store, "beta");
        assert_eq!(
            report.stores[0].snapshot.sampled_reads,
            report.stores[1].snapshot.sampled_reads
        );
    }

    #[test]
    fn non_heat_families_are_ignored_not_errors() {
        let mut text = String::from(
            "# TYPE lbmf_store_shard_epoch gauge\n\
             lbmf_store_shard_epoch{store=\"x\",shard=\"0\"} 7\n\
             lbmf_serialize_requests_total 41\n",
        );
        text.push_str(&zipfy_snapshot().render("only"));
        let report = assemble(&prometheus::parse(&text).unwrap()).unwrap();
        assert_eq!(report.stores.len(), 1);
        assert_eq!(report.stores[0].store, "only");
    }

    #[test]
    fn vacuous_payload_is_flagged_not_invented() {
        let report = assemble(&prometheus::parse("up 1\n").unwrap()).unwrap();
        assert!(report.is_vacuous());
        assert!(report.render(10).contains("no workload heat data"));
        assert_eq!(report.theta_gate(0.99, 0.1), vec!["no heat data to gate on"]);
    }

    #[test]
    fn theta_gate_passes_in_tolerance_and_names_the_store_outside_it() {
        let report = assemble(&prometheus::parse(&zipfy_snapshot().render("g")).unwrap()).unwrap();
        assert!(report.theta_gate(0.99, 0.1).is_empty());
        let failures = report.theta_gate(0.20, 0.1);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("store \"g\""), "{}", failures[0]);
    }

    #[test]
    fn malformed_heat_samples_are_loud_errors() {
        let missing_rank = "lbmf_store_hotkey_reads{store=\"x\",key=\"1\"} 5\n";
        let e = assemble(&prometheus::parse(missing_rank).unwrap()).unwrap_err();
        assert!(e.contains("rank"), "{e}");

        let clashing = "\
            lbmf_store_hotkey_reads{store=\"x\",key=\"1\",rank=\"1\"} 5\n\
            lbmf_store_hotkey_read_err{store=\"x\",key=\"2\",rank=\"1\"} 1\n";
        let e = assemble(&prometheus::parse(clashing).unwrap()).unwrap_err();
        assert!(e.contains("rank 1 claimed by both"), "{e}");
    }
}
