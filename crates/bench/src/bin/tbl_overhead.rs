//! **E2** — the Section 5 overhead comparison: one serialization round
//! trip costs ≈10,000 cycles for the signal-based software prototype and
//! ≈150 cycles for the proposed LE/ST hardware.
//!
//! Measured here, the first three through the fence suite
//! (`lbmf_bench::suite`) with a counter session attached, so the cycle
//! column is each row's own PMU reading (rdtscp where perf is
//! unavailable):
//!
//! * a real signal round trip to a parked thread (`serialize/signal_roundtrip`);
//! * a real `membarrier(2)` round trip, the kernel-assisted middle point
//!   (`serialize/membarrier_roundtrip`);
//! * a real `mfence`-class fence, for scale (`fence/full_fence`);
//! * the simulated LE/ST round trip on the cycle-level machine (a remote
//!   read hitting a guarded location).
//!
//! ```text
//! cargo run --release -p lbmf-bench --bin tbl_overhead
//! ```
//!
//! `LBMF_BENCH_MS` sets the measurement window per batch.

use lbmf_bench::criterion::{BenchResult, Criterion};
use lbmf_bench::suite::fence_cases;
use lbmf_bench::Table;
use lbmf_sim::prelude::*;

/// Simulated LE/ST round trip: CPU1 reads a location guarded by CPU0's
/// live link; the cost charged to CPU1's load is the round trip.
fn sim_lest_roundtrip() -> u64 {
    let mut b0 = ProgramBuilder::new("primary");
    b0.lmfence(L1, 1u64).halt();
    let mut b1 = ProgramBuilder::new("secondary");
    b1.ld(0, L1).halt();
    let cfg = MachineConfig {
        record_trace: false,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg, CostModel::default(), vec![b0.build(), b1.build()]);
    // Run the primary through its l-mfence (link set, store buffered).
    while !m.cpus[0].halted {
        m.apply(Transition::Step(0));
    }
    let before = m.cpus[1].clock;
    m.apply(Transition::Step(1)); // the guarded read: link break + flush
    m.cpus[1].clock - before
}

fn main() {
    println!("E2: serialization round-trip costs (paper, Section 5)\n");
    let mut c = Criterion::default().with_pmu();
    let [sig, mb, fence] = fence_cases(
        &mut c,
        ["serialize/signal_roundtrip", "serialize/membarrier_roundtrip", "fence/full_fence"],
    );
    let (sig, fence) = (sig.expect("signal round trip"), fence.expect("full fence"));
    let lest_cycles = sim_lest_roundtrip();

    // Mean ns and cycles/op cover the same timed batches.
    let cycles = |r: &BenchResult| r.pmu.as_ref().expect("with_pmu attaches a reading").cycles_per_op;
    let mut t = Table::new(&["mechanism", "measured", "cycles/op", "paper"]);
    t.row(&[
        "signal round trip (software prototype)".into(),
        format!("{:.0} ns", sig.mean_ns),
        format!("{:.0}", cycles(&sig)),
        "~10,000 cycles".into(),
    ]);
    t.row(&[
        "membarrier round trip (kernel asym. fence)".into(),
        mb.as_ref().map_or("n/a".into(), |r| format!("{:.0} ns", r.mean_ns)),
        mb.as_ref().map_or("-".into(), |r| format!("{:.0}", cycles(r))),
        "(not in paper)".into(),
    ]);
    t.row(&[
        "LE/ST round trip (simulated hardware)".into(),
        format!("{lest_cycles} cycles (model)"),
        format!("{lest_cycles}"),
        "~150 cycles".into(),
    ]);
    t.row(&[
        "mfence (for scale)".into(),
        format!("{:.1} ns", fence.mean_ns),
        format!("{:.0}", cycles(&fence)),
        "tens of cycles".into(),
    ]);
    t.print();
    if let Some((source, reason)) = c.pmu_status() {
        println!(
            "cycles/op: {} reading{}",
            source.name(),
            reason.map_or(String::new(), |r| format!(" (degraded: {r})"))
        );
    }

    let measured_ratio = cycles(&sig) / lest_cycles as f64;
    println!(
        "\nshape check: signal/LE-ST ratio = {measured_ratio:.0}x \
         (paper: 10000/150 ≈ 67x) — the software prototype is ~2 orders of \
         magnitude more expensive than the proposed hardware."
    );
}
