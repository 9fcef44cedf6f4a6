//! Timing, sampling, span recording and the run deadline, shared by every
//! workload.

use lbmf::sync::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Length of one throughput window: `ops_per_s` is the median of the
/// per-window call rates, so a short stall of the host does not move it.
pub const WINDOW: Duration = Duration::from_millis(250);

/// Worker threads per workload: the two CPUs of the reference host, one
/// closed-loop caller each.
pub const THREADS: usize = 2;

/// A raw timestamp: `rdtscp`, which does not drain the store buffer, so
/// timing a call does not add the fence the call is trying to avoid.
#[inline]
pub fn tsc() -> u64 {
    lbmf::fence::rdtscp_cycles()
}

/// TSC ticks per nanosecond, measured against the monotonic clock.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    ticks_per_ns: f64,
}

impl Clock {
    /// Measure the TSC rate over `window`.
    pub fn calibrate(window: Duration) -> Clock {
        let (t0, c0) = (Instant::now(), tsc());
        std::thread::sleep(window);
        let (c1, t1) = (tsc(), Instant::now());
        let ns = t1.duration_since(t0).as_nanos() as f64;
        Clock {
            ticks_per_ns: (c1.wrapping_sub(c0) as f64 / ns).max(1e-9),
        }
    }

    /// TSC ticks per nanosecond.
    pub fn ticks_per_ns(&self) -> f64 {
        self.ticks_per_ns
    }

    /// `ticks` in nanoseconds.
    pub fn ns(&self, ticks: f64) -> f64 {
        ticks / self.ticks_per_ns
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted`, linearly interpolated
/// between closest ranks; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    quantile_by(sorted.len(), q, |i| sorted[i])
}

/// [`quantile`] over `n` sorted values read through `at`.
fn quantile_by(n: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    match n {
        0 => 0.0,
        1 => at(0),
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            at(lo) + (at(hi) - at(lo)) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Latency samples in TSC ticks: a fixed ring, allocated and touched up
/// front, so the benchmark's own memory does not grow with the call rate
/// (which would leak into `peak_rss_mib`). Once full, new samples
/// overwrite the oldest.
#[derive(Debug, Default)]
pub struct Samples {
    ticks: Vec<u32>,
    next: usize,
    total: u64,
}

impl Samples {
    /// A ring of `cap` samples.
    pub fn with_capacity(cap: usize) -> Samples {
        Samples {
            ticks: vec![u32::MAX; cap.max(1)],
            next: 0,
            total: 0,
        }
    }

    /// Record one sample (saturating at `u32::MAX` ticks).
    #[inline]
    pub fn push(&mut self, ticks: u64) {
        self.ticks[self.next] = ticks.min(u64::from(u32::MAX)) as u32;
        self.next += 1;
        if self.next == self.ticks.len() {
            self.next = 0;
        }
        self.total += 1;
    }

    fn kept(&self) -> &[u32] {
        &self.ticks[..(self.total.min(self.ticks.len() as u64) as usize)]
    }

    /// The kept ticks of every set, sorted.
    pub fn sorted<'a>(sets: impl IntoIterator<Item = &'a Samples>) -> Vec<u32> {
        let mut all: Vec<u32> = sets
            .into_iter()
            .flat_map(|s| s.kept().iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

/// Percentiles of one call's latency.
#[derive(Clone, Copy, Debug, Default)]
pub struct Latency {
    /// Samples behind the percentiles.
    pub count: usize,
    /// Median, ns.
    pub p50_ns: f64,
    /// 99th percentile, ns.
    pub p99_ns: f64,
}

impl Latency {
    /// Percentiles over every set in `sets`.
    pub fn of<'a>(sets: impl IntoIterator<Item = &'a Samples>, clock: &Clock) -> Latency {
        let ticks = Samples::sorted(sets);
        let at = |q: f64| clock.ns(quantile_by(ticks.len(), q, |i| f64::from(ticks[i])));
        Latency {
            count: ticks.len(),
            p50_ns: at(0.50),
            p99_ns: at(0.99),
        }
    }

    /// Whether the 99th percentile has at least ten samples beyond it.
    pub fn p99_supported(&self) -> bool {
        self.count >= 1000
    }
}

/// `VmHWM` of this process in MiB (peak resident set), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Rendezvous and stop flag for the two closed-loop worker threads of one
/// set-up. Workers register their handles, meet the main thread at
/// `ready` (which ends the set-up timing), and start together at `go`.
pub struct Ctl {
    ready: Barrier,
    go: Barrier,
    done: Barrier,
    abort: AtomicBool,
    stop: AtomicBool,
    /// Calls completed so far per worker, published every few calls so
    /// the deadline can count unfinished work.
    completed: [CachePadded<AtomicU64>; THREADS],
}

impl Ctl {
    /// Fresh control block for `THREADS` workers plus the main thread.
    pub fn new() -> Ctl {
        Ctl {
            ready: Barrier::new(THREADS + 1),
            go: Barrier::new(THREADS + 1),
            done: Barrier::new(THREADS),
            abort: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            completed: std::array::from_fn(|_| CachePadded::new(AtomicU64::new(0))),
        }
    }

    /// Worker side: report ready, wait for the start; `false` when this
    /// set-up was only timed and the worker must exit.
    pub fn rendezvous(&self) -> bool {
        self.ready.wait();
        self.go.wait();
        !self.abort.load(Ordering::Acquire)
    }

    /// Worker side: whether the measured phase is over.
    #[inline]
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Worker side: publish this worker's completed-call count.
    #[inline]
    pub fn publish(&self, worker: usize, done: u64) {
        self.completed[worker].store(done, Ordering::Relaxed);
    }

    /// Worker side, after its loop: wait until every worker stopped, so
    /// no handle deregisters while another worker may still serialize it.
    pub fn finish(&self) {
        self.done.wait();
    }

    /// Calls completed so far, all workers.
    pub fn completed(&self) -> u64 {
        self.completed
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .sum()
    }
}

impl Default for Ctl {
    fn default() -> Self {
        Ctl::new()
    }
}

/// A live set-up: the shared object under test and its two registered
/// workers, parked before the measured phase.
pub struct Rig<S, R> {
    /// The object the workers call into.
    pub shared: Arc<S>,
    /// Control block of this set-up.
    pub ctl: Arc<Ctl>,
    workers: Vec<std::thread::JoinHandle<Option<R>>>,
}

/// What the two workers of a measured phase returned.
pub struct Finished<S, R> {
    /// The object the workers called into.
    pub shared: Arc<S>,
    /// One result per worker, in worker order.
    pub results: Vec<R>,
    /// Calls per second, both workers, in each full [`WINDOW`] of the
    /// measured phase.
    pub window_rates: Vec<f64>,
    /// Peak resident set right after the phase, MiB (before the results
    /// are post-processed).
    pub peak_rss_mib: f64,
}

/// A worker body: registers its handle on the shared object, meets the
/// others at [`Ctl::rendezvous`], and returns `None` if released without a
/// measured phase.
pub type WorkerFn<S, R> = dyn Fn(&Arc<S>, usize, &Ctl) -> Option<R> + Send + Sync;

/// Build the shared object and spawn `THREADS` workers `reps` times,
/// timing each set-up up to the point where every worker has registered.
/// All but the last set-up are torn down again; the last one is returned
/// parked, with the median set-up time in seconds and every sample.
pub fn set_up<S, R>(
    reps: usize,
    build: &dyn Fn() -> Arc<S>,
    worker: Arc<WorkerFn<S, R>>,
) -> (Rig<S, R>, Vec<f64>)
where
    S: Send + Sync + 'static,
    R: Send + 'static,
{
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(rig) = last.take() {
            discard(rig);
        }
        let t0 = Instant::now();
        let shared = build();
        let ctl = Arc::new(Ctl::new());
        let workers = (0..THREADS)
            .map(|w| {
                let (shared, ctl, worker) = (shared.clone(), ctl.clone(), worker.clone());
                std::thread::Builder::new()
                    .name(format!("e2e-worker-{w}"))
                    .spawn(move || worker(&shared, w, &ctl))
                    .expect("spawn benchmark worker")
            })
            .collect();
        ctl.ready.wait();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(Rig {
            shared,
            ctl,
            workers,
        });
    }
    (last.expect("at least one set-up"), times)
}

fn discard<S, R>(rig: Rig<S, R>) {
    rig.ctl.abort.store(true, Ordering::Release);
    rig.ctl.go.wait();
    for w in rig.workers {
        w.join().expect("benchmark worker panicked");
    }
}

impl<S, R> Rig<S, R> {
    /// Release the workers, let them run for `seconds` (calling `tick`,
    /// if given, about once a millisecond meanwhile), stop them and
    /// collect their results and per-[`WINDOW`] call rates.
    pub fn run(self, seconds: f64, mut tick: Option<&mut dyn FnMut(&S)>) -> Finished<S, R> {
        *LIVE.lock().expect("deadline lock") = Some(self.ctl.clone());
        self.ctl.go.wait();
        let start = Instant::now();
        let until = start + Duration::from_secs_f64(seconds);
        let mut marks = vec![(start, 0u64)];
        let mut next_window = start + WINDOW;
        loop {
            let now = Instant::now();
            if now >= until {
                break;
            }
            if now >= next_window {
                marks.push((now, self.ctl.completed()));
                next_window += WINDOW;
            }
            let mut wake = next_window.min(until);
            if let Some(tick) = tick.as_mut() {
                tick(&self.shared);
                wake = wake.min(now + Duration::from_millis(1));
            }
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
        }
        self.ctl.stop.store(true, Ordering::Relaxed);
        let results = self
            .workers
            .into_iter()
            .map(|w| {
                w.join()
                    .expect("benchmark worker panicked")
                    .expect("released worker returns a result")
            })
            .collect();
        *LIVE.lock().expect("deadline lock") = None;
        account(self.ctl.completed());
        let window_rates = marks
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) as f64 / w[1].0.duration_since(w[0].0).as_secs_f64())
            .collect();
        Finished {
            shared: self.shared,
            results,
            window_rates,
            peak_rss_mib: peak_rss_mib(),
        }
    }
}

/// Calls finished by completed phases (reported if the deadline fires).
static FINISHED: AtomicU64 = AtomicU64::new(0);
/// The control block of the phase running now, if any.
static LIVE: Mutex<Option<Arc<Ctl>>> = Mutex::new(None);

/// Count `calls` finished calls toward the deadline report.
pub fn account(calls: u64) {
    FINISHED.fetch_add(calls, Ordering::Relaxed);
}

/// Arm the process-wide deadline: if the run is still going `limit` from
/// now, print a failed result that counts the calls still in flight as
/// failed, and exit with code 3. A wedged call (the serialize ack wait
/// is an unbounded spin) therefore never hangs the benchmark.
pub fn arm_deadline(limit: Duration) {
    std::thread::Builder::new()
        .name("e2e-deadline".into())
        .spawn(move || {
            std::thread::sleep(limit);
            let live = LIVE.lock().map(|l| l.as_ref().map_or(0, |c| c.completed())).unwrap_or(0);
            let unfinished = THREADS as u64;
            let attempted = FINISHED.load(Ordering::Relaxed) + live + unfinished;
            eprintln!("e2ebench: deadline of {limit:?} exceeded; {unfinished} calls unfinished");
            println!(
                "{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {unfinished}, \"metrics\": {{}}}}"
            );
            std::process::exit(3);
        })
        .expect("spawn deadline thread");
}

/// One recorded span: a timed call into a layer, or a phase around such
/// calls.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique id (the recording buffer's number in the top bits).
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    /// What was called, e.g. `store.get`.
    pub name: &'static str,
    /// Start, TSC ticks.
    pub start: u64,
    /// End, TSC ticks.
    pub end: u64,
    /// Recording thread (worker number; `THREADS` = main thread).
    pub thread: u32,
    /// Workload whose phase recorded it.
    pub workload: &'static str,
}

/// Per-thread in-memory span buffer; preallocated, never reallocates on
/// the timed path, drops spans (and counts them) once full.
#[derive(Debug)]
pub struct SpanLog {
    base: u64,
    thread: u32,
    workload: &'static str,
    next: u64,
    spans: Vec<Span>,
    /// Spans not kept because the buffer was full.
    pub dropped: u64,
}

impl SpanLog {
    /// A buffer for `thread` of a `workload` phase holding up to `cap`
    /// spans.
    pub fn new(thread: u32, workload: &'static str, cap: usize) -> SpanLog {
        static LOGS: AtomicU64 = AtomicU64::new(1);
        SpanLog {
            base: LOGS.fetch_add(1, Ordering::Relaxed) << 40,
            thread,
            workload,
            next: 0,
            spans: Vec::with_capacity(cap),
            dropped: 0,
        }
    }

    /// Allocate a span id (used for parents opened before their end is
    /// known).
    pub fn open(&mut self) -> u64 {
        self.next += 1;
        self.base | self.next
    }

    /// Record a finished span with a preallocated `id`.
    pub fn close(&mut self, id: u64, parent: u64, name: &'static str, start: u64, end: u64) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                id,
                parent,
                name,
                start,
                end,
                thread: self.thread,
                workload: self.workload,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Record a finished leaf span.
    #[inline]
    pub fn leaf(&mut self, parent: u64, name: &'static str, start: u64, end: u64) {
        let id = self.open();
        self.close(id, parent, name, start, end);
    }

    /// Move another buffer's spans into this one.
    pub fn absorb(&mut self, other: SpanLog) {
        self.dropped += other.dropped;
        self.spans.extend(other.spans);
    }

    /// Merge the buffers of several threads; `None` if none recorded.
    pub fn gather(logs: impl IntoIterator<Item = Option<SpanLog>>) -> Option<SpanLog> {
        logs.into_iter().flatten().reduce(|mut all, log| {
            all.absorb(log);
            all
        })
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name: each span's duration minus the part its
/// direct children cover, summed per name, in TSC ticks.
pub fn self_ticks(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    use std::collections::BTreeMap;
    let mut child: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child.entry(s.parent).or_default() += s.end.saturating_sub(s.start);
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end.saturating_sub(s.start);
        let own = dur.saturating_sub(child.get(&s.id).copied().unwrap_or(0));
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    by_name.into_iter().map(|(n, (c, t))| (n, c, t)).collect()
}

/// Write `spans` as JSON lines (one span per line) to `path`.
pub fn write_spans(path: &std::path::Path, clock: &Clock, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let origin = spans.iter().map(|s| s.start).min().unwrap_or(0);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{:.1},\"end_ns\":{:.1},\"thread\":{},\"workload\":\"{}\"}}",
            s.id,
            s.parent,
            s.name,
            clock.ns(s.start.saturating_sub(origin) as f64),
            clock.ns(s.end.saturating_sub(origin) as f64),
            s.thread,
            s.workload
        )?;
    }
    out.flush()
}

/// Events appended to and dropped from every `lbmf-trace` ring so far.
/// Take it while the traced threads are parked or joined.
pub fn trace_totals() -> (u64, u64) {
    let snap = lbmf_trace::take_snapshot();
    let dropped = snap.total_dropped();
    (dropped + snap.total_events() as u64, dropped)
}
