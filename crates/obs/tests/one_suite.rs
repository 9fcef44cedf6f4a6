//! `record`, `pmu` and `cargo bench` run one case list: every case of
//! `lbmf_bench::suite::fence_suite` must come out of both `lbmf-obs`
//! views under its own name.

use lbmf::strategy::FenceStrategy;
use lbmf_bench::suite::{fence_suite, Harness};
use lbmf_obs::{pmu, suite};
use lbmf_pmu::PmuSession;

/// Collects case names without running the bodies.
#[derive(Default)]
struct Names(Vec<String>);

impl Harness for Names {
    fn case<T>(&mut self, name: &str, _: Option<&dyn FenceStrategy>, _: impl FnMut() -> T) {
        self.0.push(name.to_string());
    }
}

#[test]
fn record_and_pmu_print_every_fence_suite_case() {
    let mut names = Names::default();
    fence_suite(&mut names);

    let record = suite::run(true);
    let report = pmu::run_with(&mut PmuSession::tsc("forced by test"), true);
    for name in &names.0 {
        assert!(record.entry(name).is_some(), "record lacks {name}");
        assert!(
            report.rows.iter().any(|r| &r.name == name),
            "pmu lacks {name}"
        );
    }

    for name in ["dekker_entry/membarrier", "serialize/membarrier_roundtrip"] {
        if let Some(e) = record.entry(name) {
            assert_eq!(e.strategy.as_deref(), Some("lbmf-membarrier"), "{name}");
        }
    }
    if let Some(e) = record.entry("serialize/membarrier_roundtrip") {
        let fs = e.fence_stats.expect("strategy cases carry stats");
        assert!(
            fs.serializations_delivered > 0,
            "membarrier round trips delivered: {fs:?}"
        );
    }
}
