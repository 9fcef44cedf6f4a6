//! The fence suite, written once. `cargo bench`, `lbmf-obs record`,
//! `lbmf-obs pmu` and the E1/E2 figure binaries all run these cases
//! through their own [`Harness`], so a change to a fast path is measured
//! the same way by every tool.
//!
//! * `dekker_entry/*` — E1, the uncontended primary entry per strategy:
//!   `symmetric` is the `mfence` baseline, `signal` and `membarrier` the
//!   asymmetric prototypes, `no_fence` the (unsafe) floor;
//! * `fence/*` — the raw cost of the two fence flavours, for scale;
//! * `serialize/*_roundtrip` — E2, one remote serialization of a parked
//!   thread through the strategy's `serialize_remote`;
//! * `steal/fib_test` — a whole ACilk-5 work-stealing run on 2 workers,
//!   the macro-benchmark the fast-path numbers should add up to.
//!
//! The membarrier cases appear only where the kernel supports
//! `MEMBARRIER_CMD_PRIVATE_EXPEDITED`.

use crate::criterion::{BenchResult, Criterion};
use lbmf::prelude::*;
use lbmf_cilk::bench::{Kernel, Scale};
use lbmf_cilk::Scheduler;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A consumer of the suite: measures (or records, or skips) each case.
pub trait Harness {
    /// Measure `body` as the case `name`. `strategy` is the fence
    /// strategy the body exercises, so a harness can read its counters.
    fn case<T>(
        &mut self,
        name: &str,
        strategy: Option<&dyn FenceStrategy>,
        body: impl FnMut() -> T,
    );
}

impl Harness for Criterion {
    fn case<T>(&mut self, name: &str, _: Option<&dyn FenceStrategy>, mut body: impl FnMut() -> T) {
        self.bench_function(name, |b| b.iter(&mut body));
    }
}

/// A parked registered thread: the remote-serialization target of
/// every round-trip case.
struct Target {
    remote: RemoteThread,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Target {
    /// Spawn the thread and wait until it has registered.
    fn spawn() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("serialize-target".into())
            .spawn(move || {
                let reg = register_current_thread();
                tx.send(reg.remote()).unwrap();
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_micros(50));
                }
            })
            .expect("spawn serialize target");
        Target {
            remote: rx.recv().unwrap(),
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Target {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn dekker_entry<S: FenceStrategy>(h: &mut impl Harness, name: &str, strategy: Arc<S>) {
    // The harness thread runs every case, so it is the primary throughout.
    let primary = Arc::new(AsymmetricDekker::new(strategy.clone())).register_primary();
    h.case(name, Some(&*strategy), || {
        primary.with_lock(|| std::hint::black_box(()))
    });
}

/// Run every case of the suite through `h`, in a fixed order.
pub fn fence_suite(h: &mut impl Harness) {
    dekker_entry(h, "dekker_entry/symmetric", Arc::new(Symmetric::new()));
    dekker_entry(h, "dekker_entry/signal", Arc::new(SignalFence::new()));
    if let Some(m) = MembarrierFence::try_new() {
        dekker_entry(h, "dekker_entry/membarrier", Arc::new(m));
    }
    dekker_entry(h, "dekker_entry/no_fence", Arc::new(NoFence::new()));

    h.case("fence/full_fence", None, full_fence);
    h.case("fence/compiler_fence", None, compiler_fence_only);

    {
        let target = Target::spawn();
        let signal = SignalFence::new();
        h.case("serialize/signal_roundtrip", Some(&signal), || {
            signal.serialize_remote(&target.remote)
        });
        if let Some(m) = MembarrierFence::try_new() {
            h.case("serialize/membarrier_roundtrip", Some(&m), || {
                m.serialize_remote(&target.remote)
            });
        }
    }

    let strategy = Arc::new(SignalFence::new());
    let sched = Scheduler::new(2, strategy.clone());
    h.case("steal/fib_test", Some(&*strategy), || {
        Kernel::Fib.run_timed(&sched, Scale::Test).checksum
    });
}

/// Forwards only the named cases.
struct Only<'a> {
    harness: &'a mut Criterion,
    names: &'a [&'a str],
}

impl Harness for Only<'_> {
    fn case<T>(
        &mut self,
        name: &str,
        strategy: Option<&dyn FenceStrategy>,
        body: impl FnMut() -> T,
    ) {
        if self.names.contains(&name) {
            self.harness.case(name, strategy, body);
        }
    }
}

/// Run only the named cases of [`fence_suite`] through `c` and return
/// their results in `names` order (`None` for a case this host lacks).
/// The set-up of the skipped cases still runs; their bodies do not.
pub fn fence_cases<const N: usize>(
    c: &mut Criterion,
    names: [&str; N],
) -> [Option<BenchResult>; N] {
    fence_suite(&mut Only {
        harness: c,
        names: &names,
    });
    names.map(|n| c.results().iter().find(|r| r.name == n).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs each body once and records the name and whether a strategy
    /// came with it.
    #[derive(Default)]
    struct Once(Vec<(String, bool)>);

    impl Harness for Once {
        fn case<T>(
            &mut self,
            name: &str,
            strategy: Option<&dyn FenceStrategy>,
            mut body: impl FnMut() -> T,
        ) {
            std::hint::black_box(body());
            self.0.push((name.to_string(), strategy.is_some()));
        }
    }

    #[test]
    fn every_case_is_named_once_and_carries_its_strategy() {
        let mut h = Once::default();
        fence_suite(&mut h);
        let names: Vec<&str> = h.0.iter().map(|(n, _)| n.as_str()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate case names: {names:?}");

        let membarrier = MembarrierFence::try_new().is_some();
        for name in ["dekker_entry/membarrier", "serialize/membarrier_roundtrip"] {
            assert_eq!(names.contains(&name), membarrier, "{name}: {names:?}");
        }
        for name in [
            "dekker_entry/symmetric",
            "dekker_entry/signal",
            "dekker_entry/no_fence",
            "fence/full_fence",
            "fence/compiler_fence",
            "serialize/signal_roundtrip",
            "steal/fib_test",
        ] {
            assert!(names.contains(&name), "missing {name}: {names:?}");
        }
        for (name, has_strategy) in &h.0 {
            if name.starts_with("dekker_entry/") || name.starts_with("serialize/") {
                assert!(has_strategy, "{name} must pass its strategy");
            }
        }
    }

    #[test]
    fn fence_cases_runs_only_the_named_cases() {
        let mut c = Criterion::with_target(Duration::from_micros(100));
        let [full, missing] = fence_cases(&mut c, ["fence/full_fence", "no/such_case"]);
        assert_eq!(full.map(|r| r.name).as_deref(), Some("fence/full_fence"));
        assert!(missing.is_none());
        assert_eq!(c.results().len(), 1, "skipped cases must not be timed");
    }
}
