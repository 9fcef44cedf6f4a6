//! `lbmf-e2ebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints its metrics, then, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the workload untraced and traced, then the per-layer ladder, and
//! reports the per-layer metrics. Normally started through `run.py`,
//! which builds it and records the enabled cargo features.

use lbmf_e2ebench::harness::{self, Clock, Latency, SpanLog};
use lbmf_e2ebench::ladder::{self, Sources, LAYER_METRICS};
use lbmf_e2ebench::{arw, cilk, kv, ratio, result_json, EndToEnd, Measured, Metric, WORKLOADS};
use std::time::Duration;

/// Hard cap on one run, inside the 180 s a run may take.
const DEADLINE: Duration = Duration::from_secs(150);

/// Phases of a measured run (see [`Measured`]).
const PHASES: usize = 5;

/// Measured seconds of the warm-up phase every run starts with.
const WARM_UP_S: f64 = 1.0;

/// Measured seconds of the traced stand-ins for layers the traced
/// workload does not exercise.
const STAND_IN_S: f64 = 1.0;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| format!("unknown workload {value:?}; one of {WORKLOADS:?}"))?
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lbmf-e2ebench: {e}");
            eprintln!(
                "usage: lbmf-e2ebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    harness::arm_deadline(DEADLINE);
    let clock = Clock::calibrate(Duration::from_millis(50));
    let clocksource =
        std::fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# host: nproc={nproc} clocksource={clocksource} tsc_ticks_per_ns={:.4} workload={} seed={} seconds={} trace={} threads={} strategy=lbmf-signal",
        clock.ticks_per_ns(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        harness::THREADS
    );
    // A discarded warm-up phase first. The first phase a process runs is
    // measurably slower than later ones (on kv-write-uniform by about a
    // third, steadily, not as a ramp); a serving process runs warm.
    let warm_up = measure(args.workload, args.seed, WARM_UP_S, 1, false, &clock);
    let (attempted, failed, metrics) = if args.trace {
        traced(&args, &clock)
    } else {
        untraced(&args, &clock)
    };
    let (attempted, failed) = (attempted + warm_up.attempted(), failed + warm_up.failed());
    println!(
        "fail_ratio {} ratio ({failed} of {attempted} calls failed)",
        ratio(failed as f64, attempted as f64)
    );
    println!("{}", result_json(attempted, failed, &metrics));
}

/// Run `phases` phases of `workload`, `seconds` in all, each on a fresh
/// set-up. With `full_setups`, each phase times its set-up as often as
/// the workload asks; otherwise once.
fn measure(
    workload: &str,
    seed: u64,
    seconds: f64,
    phases: usize,
    full_setups: bool,
    clock: &Clock,
) -> Measured {
    let each = seconds / phases as f64;
    let setups = |n: usize| if full_setups { n } else { 1 };
    let kv_inputs = kv_shape(workload).map(|shape| (shape, kv::inputs(&shape, seed)));
    let phase = || match workload {
        arw::NAME => arw::run(seed, each, setups(arw::SETUPS), false, clock).e2e,
        cilk::NAME => cilk::run(seed, each, setups(cilk::SETUPS), false, clock).e2e,
        _ => {
            let (shape, inputs) = kv_inputs.as_ref().expect("a KV workload");
            kv::run(inputs, each, setups(shape.setups), false, clock).e2e
        }
    };
    Measured {
        phases: (0..phases).map(|_| phase()).collect(),
    }
}

fn kv_shape(workload: &str) -> Option<kv::Shape> {
    [kv::READ_ZIPF, kv::WRITE_UNIFORM]
        .into_iter()
        .find(|s| s.name == workload)
}

fn untraced(args: &Args, clock: &Clock) -> (u64, u64, Vec<Metric>) {
    let run = measure(args.workload, args.seed, args.seconds, PHASES, true, clock);
    print_call_view(args.workload, &run);
    let metrics = run.metrics();
    for m in &metrics {
        println!("{:<16} {:>16.4} {}", m.name, m.value, m.unit);
    }
    (run.attempted(), run.failed(), metrics)
}

/// Print the workload's figures under the call names of its layer (gets
/// and puts, read and write sections, `fib` and `cilksort` runs), with
/// sample counts. Percentiles are averaged over the phases; counts and
/// rates cover all of them.
fn print_call_view(workload: &str, run: &Measured) {
    let n = run.phases.len();
    let elapsed: f64 = run.phases.iter().map(|p| p.elapsed_s).sum();
    let total = |f: fn(&EndToEnd) -> u64| run.phases.iter().map(f).sum::<u64>();
    let (common_calls, rare_calls) = (total(|p| p.common_calls), total(|p| p.rare_calls));
    let samples =
        |f: fn(&EndToEnd) -> &Latency| run.phases.iter().map(|p| f(p).count).sum::<usize>();
    let p99 = |f: fn(&EndToEnd) -> &Latency, scale: f64, unit: &str| {
        let value = run.mean(|p| f(p).p99_ns) / scale;
        if run.phases.iter().all(|p| f(p).p99_supported()) {
            format!("{value:.3} {unit}")
        } else {
            format!("{value:.3} {unit} (under 10 samples beyond it)")
        }
    };
    let common: fn(&EndToEnd) -> &Latency = |p| &p.common;
    let rare: fn(&EndToEnd) -> &Latency = |p| &p.rare;
    println!(
        "{workload}: {n} phases, {elapsed:.3} s measured; setup_s {:.6} s (median of {} set-ups)",
        run.setup_s(),
        run.setups()
    );
    match workload {
        cilk::NAME => {
            let mean_ms = |f: fn(&EndToEnd) -> &Latency| run.mean(|p| f(p).p50_ns) / 1e6;
            println!(
                "{workload}: fib_ms {:.3} ms (median per phase, mean of phases; {} runs)",
                mean_ms(common),
                samples(common)
            );
            println!(
                "{workload}: cilksort_ms {:.3} ms (median per phase, mean of phases; {} runs)",
                mean_ms(rare),
                samples(rare)
            );
        }
        _ => {
            let (read, write) = if workload == arw::NAME {
                ("read sections", "write sections")
            } else {
                ("gets", "puts")
            };
            println!(
                "{workload}: read_ops_per_s {:.1} ops/s ({common_calls} {read})",
                ratio(common_calls as f64, elapsed)
            );
            println!(
                "{workload}: read_p50_ns {:.2} ns, read_p99_ns {} (1 in {} timed: {} samples)",
                run.mean(|p| p.common.p50_ns),
                p99(common, 1.0, "ns"),
                lbmf_e2ebench::SAMPLE_EVERY,
                samples(common)
            );
            println!(
                "{workload}: write_ops_per_s {:.1} ops/s ({rare_calls} {write})",
                ratio(rare_calls as f64, elapsed)
            );
            println!(
                "{workload}: write_p50_us {:.3} us, write_p99_us {} (every one timed: {} samples)",
                run.mean(|p| p.rare.p50_ns) / 1e3,
                p99(rare, 1e3, "us"),
                samples(rare)
            );
        }
    }
    let mut w: Vec<f64> = run
        .phases
        .iter()
        .flat_map(|p| p.window_rates.iter().copied())
        .collect();
    if !w.is_empty() {
        w.sort_by(f64::total_cmp);
        let q = |p: f64| harness::quantile(&w, p);
        println!(
            "{workload}: ops_per_s over {} windows of {:?}: min {:.0} q1 {:.0} median {:.0} q3 {:.0} max {:.0}",
            w.len(),
            harness::WINDOW,
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0)
        );
    }
    println!("{workload}: peak_rss_mib {:.3} MiB", run.peak_rss_mib());
}

fn traced(args: &Args, clock: &Clock) -> (u64, u64, Vec<Metric>) {
    let half = args.seconds / 2.0;
    let untraced = measure(args.workload, args.seed, half, 1, false, clock);
    // The workload's own traced phase, and a short traced stand-in for
    // each layer it does not exercise.
    let own = |w: &str| w == args.workload;
    let seconds = |w: &str| if own(w) { half } else { STAND_IN_S };
    let kv_name = if own(kv::WRITE_UNIFORM.name) {
        kv::WRITE_UNIFORM.name
    } else {
        kv::READ_ZIPF.name
    };
    let kv_shape = kv_shape(kv_name).expect("a KV workload");
    let kv_inputs = kv::inputs(&kv_shape, args.seed);
    let kv_run = kv::run(&kv_inputs, seconds(kv_name), 1, true, clock);
    let arw_run = arw::run(args.seed, seconds(arw::NAME), 1, true, clock);
    let cilk_run = cilk::run(args.seed, seconds(cilk::NAME), 1, true, clock);
    let traced_e2e = match args.workload {
        arw::NAME => &arw_run.e2e,
        cilk::NAME => &cilk_run.e2e,
        _ => &kv_run.e2e,
    };
    let phases = [&kv_run.e2e, &arw_run.e2e, &cilk_run.e2e];
    let attempted = untraced.attempted() + phases.iter().map(|e| e.attempted()).sum::<u64>();
    let failed = untraced.failed() + phases.iter().map(|e| e.failed).sum::<u64>();
    let untraced_ops = untraced.mean(EndToEnd::ops_per_s);
    let overhead = ratio(untraced_ops, traced_e2e.ops_per_s());
    let sources = Sources {
        kv: (&kv_run, &kv_inputs),
        arw: &arw_run,
        cilk: &cilk_run,
    };
    let mut metrics = ladder::layer_metrics(&sources, clock);
    metrics.push(Metric::new("bench.trace_overhead", overhead, "ratio"));

    println!(
        "{:<48} {:>14} {:<6} should move",
        "per-layer metric", "value", "unit"
    );
    for lm in LAYER_METRICS.iter() {
        let m = metrics
            .iter()
            .find(|m| m.name == lm.name)
            .expect("every layer metric measured");
        let flag = if lm.name == "store.put_rest_us" && m.value < 0.0 {
            "  [negative: the subtracted rungs overlap the put]"
        } else {
            ""
        };
        println!(
            "{:<48} {:>14.4} {:<6} {}{flag}",
            m.name, m.value, m.unit, lm.moves
        );
    }
    println!(
        "bench.trace_overhead @ {}: {:.4} (untraced {:.1} ops/s / traced {:.1} ops/s)",
        args.workload,
        overhead,
        untraced_ops,
        traced_e2e.ops_per_s()
    );

    let spans = SpanLog::gather([kv_run.spans, arw_run.spans, cilk_run.spans]);
    if let Some(spans) = spans {
        let path = std::path::Path::new(".bench_out")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match harness::write_spans(&path, clock, spans.spans()) {
            Ok(()) => println!(
                "spans: {} written to {} ({} dropped)",
                spans.spans().len(),
                path.display(),
                spans.dropped
            ),
            Err(e) => eprintln!("lbmf-e2ebench: writing {}: {e}", path.display()),
        }
        for (name, n, ticks) in harness::self_ticks(spans.spans()) {
            println!(
                "span {name:<16} {n:>9} spans, self time {:.6} s",
                clock.ns(ticks as f64) / 1e9
            );
        }
    }
    (attempted, failed, metrics)
}
