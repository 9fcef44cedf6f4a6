//! Prometheus rendering of the runtime's aggregate counters, composed
//! with `lbmf_trace`'s event export into the one payload `/metrics`
//! serves.
//!
//! The counter families live here rather than in `lbmf-trace` because
//! the dependency points the other way: `lbmf` (which owns
//! [`FenceStatsSnapshot`]) depends on `lbmf-trace`, so only a crate
//! above both — this one — can see a strategy's counters and the trace
//! rings at once.

use lbmf::stats::FenceStatsSnapshot;
use lbmf_store::StoreStatsSnapshot;
use lbmf_trace::prometheus::render_counter_family;

/// Render one strategy's counters in exposition format. `strategy` is
/// the strategy's stable name label (`lbmf-signal`, ...).
pub fn render_fence_stats(strategy: &str, snap: &FenceStatsSnapshot) -> String {
    let mut out = String::new();
    for (field, value) in snap.fields() {
        render_counter_family(
            &mut out,
            &format!("lbmf_fence_{field}_total"),
            &format!("Cumulative {} since strategy creation.", field.replace('_', " ")),
            &[(&[("strategy", strategy)], value)],
        );
    }
    out
}

/// Render one store's counters in exposition format. `store` is a
/// caller-chosen instance label (typically the strategy the store runs
/// under, so one scrape can compare tiers side by side).
pub fn render_store_stats(store: &str, snap: &StoreStatsSnapshot) -> String {
    let mut out = String::new();
    for (field, value) in snap.fields() {
        render_counter_family(
            &mut out,
            &format!("lbmf_store_{field}_total"),
            &format!("Cumulative store {} since creation.", field.replace('_', " ")),
            &[(&[("store", store)], value)],
        );
    }
    out
}

/// The full `/metrics` payload: the live trace-ring export followed by
/// the fence counters of every `(strategy, snapshot)` pair the workload
/// registered.
pub fn render_all(stats: &[(String, FenceStatsSnapshot)]) -> String {
    let mut out = lbmf_trace::prometheus::export(&lbmf_trace::take_snapshot());
    for (strategy, snap) in stats {
        out.push_str(&render_fence_stats(strategy, snap));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fence_counters_render_all_fields_with_headers() {
        let snap = FenceStatsSnapshot {
            primary_compiler_fences: 7,
            serializations_requested: 3,
            ..Default::default()
        };
        let text = render_fence_stats("lbmf-signal", &snap);
        assert!(text.ends_with('\n'));
        for (field, value) in snap.fields() {
            assert!(
                text.contains(&format!("# HELP lbmf_fence_{field}_total")),
                "{field} HELP missing"
            );
            assert!(
                text.contains(&format!("# TYPE lbmf_fence_{field}_total counter")),
                "{field} TYPE missing"
            );
            assert!(
                text.contains(&format!(
                    "lbmf_fence_{field}_total{{strategy=\"lbmf-signal\"}} {value}"
                )),
                "{field} sample missing in:\n{text}"
            );
        }
    }

    #[test]
    fn store_counters_render_all_fields_with_headers() {
        let snap = StoreStatsSnapshot {
            gets: 11,
            hits: 10,
            puts: 2,
            ..Default::default()
        };
        let text = render_store_stats("lbmf-signal", &snap);
        assert!(text.ends_with('\n'));
        for (field, value) in snap.fields() {
            assert!(
                text.contains(&format!("# TYPE lbmf_store_{field}_total counter")),
                "{field} TYPE missing"
            );
            assert!(
                text.contains(&format!(
                    "lbmf_store_{field}_total{{store=\"lbmf-signal\"}} {value}"
                )),
                "{field} sample missing in:\n{text}"
            );
        }
    }

    #[test]
    fn hostile_label_values_escape_and_round_trip_through_the_parser() {
        // Conformance: every renderer in the workspace escapes `\`, `"`
        // and newline in label values identically (the shared
        // `label_escape`), and the escape-aware exposition parser reads
        // the original string back out.
        let nasty = "he said \"42\"\\\nover two lines";
        let escaped = "he said \\\"42\\\"\\\\\\nover two lines";

        let fence = render_fence_stats(nasty, &FenceStatsSnapshot::default());
        let store = render_store_stats(nasty, &StoreStatsSnapshot::default());
        for text in [&fence, &store] {
            assert!(text.contains(escaped), "escaped form missing in:\n{text}");
            assert!(
                !text.lines().any(|l| l.contains("over two lines") && !l.contains("\\n")),
                "raw newline leaked into a sample line:\n{text}"
            );
            let samples = lbmf_trace::prometheus::parse(text).expect("parseable");
            assert!(!samples.is_empty());
            for s in &samples {
                let label = s.label("strategy").or_else(|| s.label("store")).unwrap();
                assert_eq!(label, nasty, "lossy label round trip in {}", s.name);
            }
        }
    }

    #[test]
    fn combined_payload_has_trace_and_fence_families() {
        let text = render_all(&[("lbmf-signal".into(), FenceStatsSnapshot::default())]);
        assert!(text.contains("lbmf_trace_events_total"));
        assert!(text.contains("lbmf_fence_primary_compiler_fences_total"));
    }
}
