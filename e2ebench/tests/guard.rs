//! The benchmark's own checks: it measures the build users get, and its
//! inputs follow the seed.

use lbmf_e2ebench::ladder::LAYER_METRICS;
use lbmf_e2ebench::{arw, cilk, kv, END_TO_END, WORKLOADS};
use lbmf_store::Op;
use std::process::Command;

const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");

/// `lbmf/check-hooks` reroutes every protocol access through the model
/// checker's hooks; the repository's root dev-dependencies turn it on for
/// root examples. The benchmark's own build must not have it.
#[test]
fn lbmf_is_built_without_check_hooks() {
    let out = Command::new(env!("CARGO"))
        .args([
            "tree",
            "--offline",
            "-e",
            "features",
            "-i",
            "lbmf",
            "--manifest-path",
            MANIFEST,
        ])
        .output()
        .expect("run cargo tree");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let tree = String::from_utf8_lossy(&out.stdout);
    assert!(
        tree.contains("lbmf feature \"trace\""),
        "tracing compiled in, as users get it:\n{tree}"
    );
    assert!(
        !tree.contains("check-hooks"),
        "check-hooks enabled:\n{tree}"
    );
}

fn kv_counts(inputs: &kv::Inputs) -> Vec<(usize, usize)> {
    inputs
        .streams
        .iter()
        .map(|s| {
            (
                s.len(),
                s.iter().filter(|op| matches!(op, Op::Put(..))).count(),
            )
        })
        .collect()
}

#[test]
fn kv_streams_follow_the_seed() {
    for shape in [kv::READ_ZIPF, kv::WRITE_UNIFORM] {
        let a = kv::inputs(&shape, 7);
        let b = kv::inputs(&shape, 7);
        let c = kv::inputs(&shape, 8);
        assert_eq!(
            kv_counts(&a),
            kv_counts(&b),
            "{}: same seed, same op and write counts",
            shape.name
        );
        assert_eq!(
            a.streams, b.streams,
            "{}: same seed, same streams",
            shape.name
        );
        assert_ne!(
            kv_counts(&a),
            kv_counts(&c),
            "{}: another seed changes the write counts",
            shape.name
        );
        for (ops, writes) in kv_counts(&a) {
            assert_eq!(ops, lbmf_e2ebench::STREAM_OPS);
            let ppm = writes as f64 * 1e6 / ops as f64;
            let want = f64::from(shape.writes_per_million);
            assert!(
                (ppm - want).abs() < want * 0.5 + 50.0,
                "{}: {ppm} puts per million",
                shape.name
            );
        }
    }
}

#[test]
fn arw_write_positions_follow_the_seed() {
    for w in 0..2 {
        let a = arw::write_positions(7, w);
        assert_eq!(a, arw::write_positions(7, w));
        assert_ne!(a, arw::write_positions(8, w));
        // One write section per block, inside its block.
        assert_eq!(a.len(), lbmf_e2ebench::STREAM_OPS / arw::WRITE_EVERY);
        for (block, &p) in a.iter().enumerate() {
            assert_eq!(p as usize / arw::WRITE_EVERY, block);
        }
    }
}

#[test]
fn cilk_schedule_follows_the_seed() {
    let a = cilk::schedule(7);
    assert_eq!(a, cilk::schedule(7));
    assert_ne!(a, cilk::schedule(8));
    // Three fib runs per cilksort run in every block of four.
    for block in a.chunks(4) {
        let sorts = block.iter().filter(|&&k| k == cilk::KERNELS[1]).count();
        assert_eq!(sorts, 1, "{block:?}");
    }
}

#[test]
fn gets_accept_only_prefilled_or_written_values() {
    let written = vec![(3, 77), (5, 9)];
    assert!(kv::valid(3, Some(4), &written));
    assert!(kv::valid(3, Some(77), &written));
    assert!(!kv::valid(3, Some(9), &written));
    assert!(!kv::valid(4, None, &written));
    assert!(!kv::valid(4, Some(lbmf_store::POISON), &written));
}

/// Every workload and metric the benchmark prints is declared in
/// `BENCHMARK.json`, with the same unit.
#[test]
fn benchmark_json_declares_every_name() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
    for w in WORKLOADS {
        assert!(
            compact.contains(&format!("{{\"name\":\"{w}\",\"why\"")),
            "workload {w}"
        );
    }
    for (name, unit) in END_TO_END {
        assert!(
            compact.contains(&format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"")),
            "metric {name}"
        );
    }
    for m in LAYER_METRICS.iter() {
        let entry = format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
            m.name, m.unit, m.better
        );
        assert!(compact.contains(&entry), "per-layer metric {}", m.name);
    }
}
