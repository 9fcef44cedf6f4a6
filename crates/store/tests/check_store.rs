//! Model-checking the store's epoch-pin protocol — and the *purity* of
//! its read fast path.
//!
//! Three claims, each machine-checked:
//!
//! 1. **Safety.** Under [`Symmetric`] and [`SignalFence`], bounded-DFS
//!    exploration (preemption bound 2, modeled x86-TSO store buffers)
//!    finds no interleaving in which a reader observes a torn value from
//!    a reclaimed snapshot table. Reclamation runs in
//!    [`ReclaimMode::Poison`] so that *if* a proof ever regressed, the
//!    failure would be a deterministic sentinel read, not undefined
//!    behavior.
//! 2. **The negative control.** [`NoFence`] keeps the reader's compiler
//!    fence but drops the remote serialization — the broken Figure-1
//!    configuration transplanted onto RCU reclamation. The checker must
//!    find the schedule where the reader's pin still sits in its store
//!    buffer, the writer trusts the stale `pin = 0`, poisons the table
//!    the reader is probing, and the reader tears.
//!
//!    Both claims are checked twice: on a one-chunk table, and on a
//!    two-chunk table where the write replaces one chunk and shares the
//!    other. There the reader also probes the shared chunk, which no
//!    reclamation may poison — so the control's tear must come from the
//!    replaced chunk alone.
//! 3. **Purity.** With a recording hook installed on a real thread, one
//!    `get` on the asymmetric fast path is *exactly* six instrumented
//!    operations — epoch load, pin store, the compiler-fence yield at
//!    the l-mfence position, table-pointer load, one value load, unpin
//!    store. No hardware fence, no RMW, no serialization: the fence-free
//!    claim, enforced op by op.

use lbmf::hooks::{install, Loc, VtHooks, YieldKind};
use lbmf::strategy::{FenceStrategy, NoFence, SignalFence, Symmetric};
use lbmf_check::Explorer;
use lbmf_store::{ReclaimMode, Store, Table, CHUNK_ENTRIES};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------
// Safety proofs and the NoFence control
// ---------------------------------------------------------------------

/// One reader racing one writer over a single-shard store prefilled with
/// `1 -> 100` (epoch 2 after the prefill). The writer publishes
/// `1 -> 200`, retiring and — once it believes no pin protects it —
/// poisoning the old snapshot. A correct strategy confines the reader to
/// {100, 200}; reading the poison sentinel is the use-after-reclaim.
fn store_body<S, F>(mk: F) -> impl Fn(&lbmf_check::Exec)
where
    S: FenceStrategy,
    F: Fn() -> S,
{
    move |exec| {
        let store = Arc::new(Store::new(Arc::new(mk()), 1, 4, ReclaimMode::Poison));
        // Control-thread prefill: runs before any virtual thread, plain.
        store.put(1, 100);

        let s = store.clone();
        exec.spawn(move || {
            let handle = s.handle();
            let v = handle.get(1).expect("key 1 is present in every snapshot");
            assert!(
                v == 100 || v == 200,
                "torn read of a reclaimed snapshot: {v:#x}"
            );
        });

        let s = store.clone();
        exec.spawn(move || {
            s.put(1, 200);
        });

        let s = store.clone();
        exec.validate(move || {
            assert_eq!(s.len(), 1);
            let snap = s.stats();
            assert_eq!(snap.puts, 2, "prefill + the racing write");
            assert_eq!(snap.gets, 1);
        });
    }
}

#[test]
fn store_symmetric_is_safe_within_preemption_bound_2() {
    let report = Explorer::dfs(2)
        .seed_override(None)
        .check("store-symmetric", store_body(Symmetric::new));
    report.assert_no_violation();
    assert!(report.exhausted, "DFS must exhaust the bounded space");
}

#[test]
fn store_signal_fence_is_safe_within_preemption_bound_2() {
    let report = Explorer::dfs(2)
        .seed_override(None)
        .check("store-signal", store_body(SignalFence::new));
    report.assert_no_violation();
    assert!(report.exhausted, "DFS must exhaust the bounded space");
}

#[test]
fn store_without_serialization_reads_a_reclaimed_table() {
    // The broken configuration: the reader's pin store can still be
    // buffered when the writer reads the pins, and nothing ever drains
    // it — the writer poisons the snapshot mid-probe.
    let report = Explorer::dfs(2)
        .seed_override(None)
        .check("store-nofence", store_body(NoFence::new));
    let v = report.expect_violation();
    assert!(
        v.message.contains("torn read"),
        "expected the poison-sentinel tear, got: {}",
        v.message
    );
    assert!(
        v.trace.contains("buffered"),
        "the failing trace must show the buffered pin store:\n{}",
        v.trace
    );
}

#[test]
fn store_nofence_failure_is_deterministic() {
    let run = || {
        Explorer::dfs(2)
            .seed_override(None)
            .check("store-nofence-det", store_body(NoFence::new))
    };
    let a = run();
    let b = run();
    let (va, vb) = (a.expect_violation(), b.expect_violation());
    // The trace embeds table addresses, which vary run to run; the
    // *schedule* that reaches the tear must not.
    assert_eq!(va.choices, vb.choices);
    assert_eq!(va.message, vb.message);
}

/// Per-shard capacity of the multi-chunk store: a two-chunk directory.
const TWO_CHUNKS: usize = 2 * CHUNK_ENTRIES;

/// The [`store_body`] race on a two-chunk table. The prefill puts
/// `1 -> 100` and `other -> 300`, where `other` lives in the chunk key 1
/// does not; the writer's `1 -> 200` replaces key 1's chunk and shares
/// the other one. The reader looks up `other` first, then key 1: the
/// shared chunk must read 300 in every schedule, key 1 {100, 200}.
fn multi_chunk_store_body<S, F>(mk: F) -> impl Fn(&lbmf_check::Exec)
where
    S: FenceStrategy,
    F: Fn() -> S,
{
    let layout = Table::with_capacity(TWO_CHUNKS);
    assert_eq!(layout.chunk_count(), 2);
    let other = (2..)
        .find(|&k| layout.chunk_index(k) != layout.chunk_index(1))
        .unwrap();
    move |exec| {
        let store = Arc::new(Store::new(
            Arc::new(mk()),
            1,
            TWO_CHUNKS,
            ReclaimMode::Poison,
        ));
        store.put(1, 100);
        store.put(other, 300);

        let s = store.clone();
        exec.spawn(move || {
            let handle = s.handle();
            let shared = handle.get(other).expect("present in every snapshot");
            assert_eq!(shared, 300, "a shared chunk was poisoned: {shared:#x}");
            let v = handle.get(1).expect("key 1 is present in every snapshot");
            assert!(
                v == 100 || v == 200,
                "torn read of a reclaimed snapshot: {v:#x}"
            );
        });

        let s = store.clone();
        exec.spawn(move || {
            s.put(1, 200);
        });

        let s = store.clone();
        exec.validate(move || {
            assert_eq!(s.len(), 2);
            let snap = s.stats();
            assert_eq!(snap.puts, 3, "two prefills + the racing write");
            assert_eq!(snap.gets, 2);
        });
    }
}

#[test]
fn multi_chunk_store_symmetric_is_safe_within_preemption_bound_2() {
    let report = Explorer::dfs(2).seed_override(None).check(
        "store-2chunk-symmetric",
        multi_chunk_store_body(Symmetric::new),
    );
    report.assert_no_violation();
    assert!(report.exhausted, "DFS must exhaust the bounded space");
}

#[test]
fn multi_chunk_store_signal_fence_is_safe_within_preemption_bound_2() {
    let report = Explorer::dfs(2).seed_override(None).check(
        "store-2chunk-signal",
        multi_chunk_store_body(SignalFence::new),
    );
    report.assert_no_violation();
    assert!(report.exhausted, "DFS must exhaust the bounded space");
}

#[test]
fn multi_chunk_store_without_serialization_tears_only_the_replaced_chunk() {
    let report = Explorer::dfs(2)
        .seed_override(None)
        .check("store-2chunk-nofence", multi_chunk_store_body(NoFence::new));
    let v = report.expect_violation();
    assert!(
        v.message.contains("torn read"),
        "expected the poison-sentinel tear on key 1, got: {}",
        v.message
    );
    assert!(
        v.trace.contains("buffered"),
        "the failing trace must show the buffered pin store:\n{}",
        v.trace
    );
}

// ---------------------------------------------------------------------
// Fast-path purity
// ---------------------------------------------------------------------

/// Records every hooked operation; commits stores immediately (an empty
/// modeled store buffer — exact for this single-threaded probe).
#[derive(Default)]
struct Recorder {
    events: Mutex<Vec<String>>,
}

impl VtHooks for Recorder {
    fn op_store(&self, loc: Loc, val: u64) {
        self.events.lock().unwrap().push(format!("store {val}"));
        unsafe { loc.commit(val) };
    }
    fn op_load(&self, loc: Loc) -> u64 {
        self.events.lock().unwrap().push("load".into());
        unsafe { loc.committed_load() }
    }
    fn op_fence(&self) {
        self.events.lock().unwrap().push("fence".into());
    }
    fn op_yield(&self, kind: YieldKind) {
        self.events.lock().unwrap().push(format!("yield {kind:?}"));
    }
    fn spin_yield(&self) {
        self.events.lock().unwrap().push("spin".into());
    }
    fn serialize(&self, _slot_key: usize) {
        self.events.lock().unwrap().push("serialize".into());
    }
    fn on_register(&self, _slot_key: usize) {
        self.events.lock().unwrap().push("register".into());
    }
}

#[test]
fn store_get_fast_path_is_exactly_six_ops_and_fence_free() {
    let rec = Arc::new(Recorder::default());
    let rec2 = rec.clone();
    std::thread::Builder::new()
        .name("store-fastpath-probe".into())
        .spawn(move || {
            let store = Arc::new(Store::new(
                Arc::new(SignalFence::new()),
                1,
                4,
                ReclaimMode::Free,
            ));
            store.put(1, 100); // epoch 1 -> 2
            let handle = store.handle();
            // Warm-up: trace ring allocation, first-touch paths.
            assert_eq!(handle.get(1), Some(100));
            rec2.events.lock().unwrap().clear();
            let _guard = install(rec2.clone());
            assert_eq!(handle.get(1), Some(100));
        })
        .unwrap()
        .join()
        .unwrap();

    let events = rec.events.lock().unwrap().clone();
    assert_eq!(
        events,
        vec![
            "load".to_string(),           // shard epoch (= 2 after prefill)
            "store 2".into(),             // pin <- epoch
            "yield CompilerFence".into(), // the l-mfence position
            "load".into(),                // published table pointer
            "load".into(),                // the one value cell
            "store 0".into(),             // unpin
        ],
        "the asymmetric read fast path must be exactly the protocol's ops"
    );
    assert!(
        !events.iter().any(|e| e == "fence" || e == "serialize" || e == "spin"),
        "no hardware fence, serialization, or blocking on the fast path: {events:?}"
    );
}

#[test]
fn health_sampling_leaves_the_reader_fast_path_pure() {
    // The health plane (gauge publication + watchdog scan) is entirely
    // sampler-side: arming it and sampling *between* two recorded gets
    // must leave each get exactly the six protocol ops, and the sample
    // itself must perform no instrumented protocol operation — no load,
    // no store, no serialization. (The sampler does take the readers
    // RwLock, whose shim models its acquire/release fences; those are
    // the sampler thread's own cost and never touch a reader.)
    let rec = Arc::new(Recorder::default());
    let rec2 = rec.clone();
    std::thread::Builder::new()
        .name("store-health-purity-probe".into())
        .spawn(move || {
            let store = Arc::new(Store::new(
                Arc::new(SignalFence::new()),
                1,
                4,
                ReclaimMode::Free,
            ));
            store.put(1, 100); // epoch 1 -> 2
            let monitor = lbmf_store::HealthMonitor::new(
                store.clone(),
                "purity",
                lbmf_store::HealthCfg::default(),
            );
            let handle = store.handle();
            assert_eq!(handle.get(1), Some(100)); // warm-up
            monitor.sample(0); // warm-up (gauge registration etc.)
            rec2.events.lock().unwrap().clear();
            let _guard = install(rec2.clone());
            assert_eq!(handle.get(1), Some(100));
            rec2.events.lock().unwrap().push("--sample--".into());
            monitor.sample(1_000);
            rec2.events.lock().unwrap().push("--get--".into());
            assert_eq!(handle.get(1), Some(100));
        })
        .unwrap()
        .join()
        .unwrap();

    let events = rec.events.lock().unwrap().clone();
    let six_ops = [
        "load",
        "store 2",
        "yield CompilerFence",
        "load",
        "load",
        "store 0",
    ];
    let sample_at = events.iter().position(|e| e == "--sample--").unwrap();
    let get_at = events.iter().position(|e| e == "--get--").unwrap();
    assert_eq!(events[..sample_at], six_ops, "get before sampling");
    assert_eq!(events[get_at + 1..], six_ops, "get after sampling");
    let sampler_footprint = &events[sample_at + 1..get_at];
    assert!(
        sampler_footprint
            .iter()
            .all(|e| e == "fence" || e == "spin"),
        "sampling must add zero instrumented protocol ops \
         (only its own readers-lock shim fences): {sampler_footprint:?}"
    );
}

#[test]
fn heat_sampling_keeps_the_reader_fast_path_to_six_instrumented_ops() {
    // The workload observatory's read-path hooks are raw relaxed atomics
    // (never `lbmf::hooks`), so the *instrumented* fast path must be the
    // same six ops whether the plane is disarmed, armed-and-sampling
    // (sample_every = 1: every recorded get feeds the sketches), or
    // disarmed again — and the sampling gets must actually have landed in
    // the heat report.
    let rec = Arc::new(Recorder::default());
    let rec2 = rec.clone();
    std::thread::Builder::new()
        .name("store-heat-purity-probe".into())
        .spawn(move || {
            let store = Arc::new(Store::new(
                Arc::new(SignalFence::new()),
                1,
                4,
                ReclaimMode::Free,
            ));
            store.put(1, 100); // epoch 1 -> 2
            let handle = store.handle();
            assert_eq!(handle.get(1), Some(100)); // warm-up, disarmed
            store.arm_heat(1);
            assert_eq!(handle.get(1), Some(100)); // warm-up, armed
                                                  // (sketch registration)
            rec2.events.lock().unwrap().clear();
            let _guard = install(rec2.clone());
            assert_eq!(handle.get(1), Some(100)); // armed + sampled
            rec2.events.lock().unwrap().push("--disarm--".into());
            store.disarm_heat();
            assert_eq!(handle.get(1), Some(100)); // disarmed
            drop(_guard);
            let heat = store.heat_report();
            assert!(heat.is_none(), "report is dark after disarm");
            store.arm_heat(1);
            let heat = store.heat_report().expect("armed again");
            assert_eq!(heat.top_reads[0].key, 1, "the sampled gets landed");
            assert!(heat.top_reads[0].count >= 2);
        })
        .unwrap()
        .join()
        .unwrap();

    let events = rec.events.lock().unwrap().clone();
    let six_ops = [
        "load",
        "store 2",
        "yield CompilerFence",
        "load",
        "load",
        "store 0",
    ];
    let disarm_at = events.iter().position(|e| e == "--disarm--").unwrap();
    assert_eq!(
        events[..disarm_at],
        six_ops,
        "armed + sampling: still exactly the protocol's six instrumented ops"
    );
    assert_eq!(
        events[disarm_at + 1..],
        six_ops,
        "disarmed: the arm-check load is raw and invisible"
    );
}

#[test]
fn symmetric_fast_path_differs_only_at_the_fence_position() {
    // Same probe under the symmetric baseline: identical ops except the
    // l-mfence position is a real draining fence — which is the entire
    // cost difference the store benchmarks measure.
    let rec = Arc::new(Recorder::default());
    let rec2 = rec.clone();
    std::thread::spawn(move || {
        let store = Arc::new(Store::new(
            Arc::new(Symmetric::new()),
            1,
            4,
            ReclaimMode::Free,
        ));
        store.put(1, 100);
        let handle = store.handle();
        assert_eq!(handle.get(1), Some(100));
        rec2.events.lock().unwrap().clear();
        let _guard = install(rec2.clone());
        assert_eq!(handle.get(1), Some(100));
    })
    .join()
    .unwrap();

    let events = rec.events.lock().unwrap().clone();
    assert_eq!(
        events,
        vec![
            "load".to_string(),
            "store 2".into(),
            "fence".into(), // the same position, now a full fence
            "load".into(),
            "load".into(),
            "store 0".into(),
        ]
    );
}
