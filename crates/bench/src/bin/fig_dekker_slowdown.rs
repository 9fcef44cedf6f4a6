//! **E1** — the Section 1 claim: a thread running alone and executing the
//! Dekker protocol with a memory fence runs 4–7× slower than without.
//!
//! Two measurements:
//!
//! 1. **Real hardware**: the fence suite's `dekker_entry/*` cases
//!    (`lbmf_bench::suite`): one thread acquires/releases an uncontended
//!    asymmetric Dekker lock; the strategy decides whether the entry
//!    fence is a real `mfence`-class fence or a compiler fence.
//! 2. **Simulated machine**: the same serial Dekker loop on the
//!    cycle-level TSO model, for each fence kind of the paper.
//!
//! ```text
//! cargo run --release -p lbmf-bench --bin fig_dekker_slowdown [--iters N]
//! ```
//!
//! `--iters` sets the simulated iterations (capped at 20,000);
//! `LBMF_BENCH_MS` sets the measurement window per real-hardware batch.

use lbmf_bench::criterion::Criterion;
use lbmf_bench::suite::fence_cases;
use lbmf_bench::{Args, Table};
use lbmf_sim::prelude::*;

fn sim_dekker_cycles(kind: FenceKind, iters: u64) -> f64 {
    let opt = DekkerOptions {
        iters,
        cs_mem_ops: true,
        // "accessing only a few memory locations in the critical section"
        cs_work: 4,
    };
    let cfg = MachineConfig {
        record_trace: false,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg, CostModel::default(), dekker_serial(kind, opt));
    // Background-drain delay of 8 "events": stores complete off the
    // critical path unless a fence forces them.
    assert!(m.run_pseudo_parallel(8, 200_000_000), "sim did not finish");
    m.cpus[0].clock as f64 / iters as f64
}

fn main() {
    let args = Args::parse();
    let iters: u64 = args.get("--iters", 200_000);

    println!("E1: serial Dekker entry cost, fence vs no fence");
    println!("(paper, Section 1: 4-7x slower with the fence on a 2 GHz Opteron)\n");

    // --- real hardware ---
    let mut c = Criterion::default();
    let [sym, sig, none] = fence_cases(
        &mut c,
        ["dekker_entry/symmetric", "dekker_entry/signal", "dekker_entry/no_fence"],
    )
    .map(|r| r.expect("dekker_entry case").min_ns);
    let mut t = Table::new(&["variant", "ns/entry", "slowdown vs fence-free"]);
    t.row(&["mfence (symmetric)".into(), format!("{sym:.1}"), format!("{:.2}x", sym / none)]);
    t.row(&["l-mfence (signal prototype)".into(), format!("{sig:.1}"), format!("{:.2}x", sig / none)]);
    t.row(&["no fence (broken)".into(), format!("{none:.1}"), "1.00x".into()]);
    println!("real hardware (fastest of 5 timed batches):");
    t.print();
    println!();

    // --- simulated machine ---
    let sim_iters = iters.min(20_000);
    let m_mfence = sim_dekker_cycles(FenceKind::Mfence, sim_iters);
    let m_lmfence = sim_dekker_cycles(FenceKind::Lmfence, sim_iters);
    let m_none = sim_dekker_cycles(FenceKind::None, sim_iters);
    let mut t = Table::new(&["variant", "cycles/entry", "slowdown vs fence-free"]);
    t.row(&["mfence".into(), format!("{m_mfence:.1}"), format!("{:.2}x", m_mfence / m_none)]);
    t.row(&["l-mfence (LE/ST)".into(), format!("{m_lmfence:.1}"), format!("{:.2}x", m_lmfence / m_none)]);
    t.row(&["no fence".into(), format!("{m_none:.1}"), "1.00x".into()]);
    println!("simulated TSO machine ({} iterations):", sim_iters);
    t.print();

    let band = m_mfence / m_none;
    println!(
        "\nshape check: simulated mfence slowdown {band:.2}x {} the paper's 4-7x band; \
         l-mfence overhead {:.2}x (paper: negligible)",
        if (3.0..=8.0).contains(&band) { "within" } else { "OUTSIDE" },
        m_lmfence / m_none
    );

    // --- contended case (simulated): the cost asymmetry under contention.
    // The paper's design goal is to keep the PRIMARY cheap even when a
    // secondary occasionally contends; here both loop concurrently.
    println!("\ncontended 2-CPU Dekker on the simulated machine ({} iterations each):", sim_iters / 10);
    let mut t = Table::new(&["pairing (primary | secondary)", "primary cyc/entry", "secondary cyc/entry"]);
    for kinds in [
        [FenceKind::Mfence, FenceKind::Mfence],
        [FenceKind::Lmfence, FenceKind::Mfence],
        [FenceKind::Lmfence, FenceKind::Lmfence],
    ] {
        let opt = DekkerOptions {
            iters: sim_iters / 10,
            cs_mem_ops: true,
            cs_work: 4,
        };
        let cfg = MachineConfig {
            record_trace: false,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg, CostModel::default(), dekker_pair_with_turn(kinds, opt));
        assert!(m.run_pseudo_parallel(8, 400_000_000), "contended sim did not finish");
        t.row(&[
            format!("{} | {}", kinds[0].label(), kinds[1].label()),
            format!("{:.1}", m.cpus[0].clock as f64 / opt.iters as f64),
            format!("{:.1}", m.cpus[1].clock as f64 / opt.iters as f64),
        ]);
    }
    t.print();
    println!(
        "(the asymmetric pairing shifts cycles from the primary column to \
         the secondary column — the paper's intended trade)"
    );
}
