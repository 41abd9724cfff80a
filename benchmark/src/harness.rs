//! How a number is taken: the frozen reference kernels, speed-normalised
//! chunk timing, one repetition, and the determinism hash.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use vedb_sim::Profile;

use crate::alloc;
use crate::trace::Spans;
use crate::workloads::{Outcome, Spec, Workload};

/// Chunks per repetition.
pub const K: usize = 40;

/// Steps of the core kernel (≈2 ms).
const CORE_STEPS: usize = 1_000_000;
/// The core kernel's array: 32 Ki `u64`s = 256 KiB, resident in L2.
const CORE_WORDS: usize = 1 << 15;
/// Steps of the cache kernel (≈3.3 ms).
const CACHE_STEPS: usize = 300_000;
/// The cache kernel's array: 1 Mi `u64`s = 8 MiB. A chunk of any workload
/// pushes it out of L2, so a run refills it through the last-level cache
/// and the memory the box shares with its neighbours.
const CACHE_WORDS: usize = 1 << 20;

/// What one run of each kernel takes on a quiet run of the builder's box,
/// in nanoseconds. Fixed when the benchmark was defined; never re-tuned, or
/// every recorded number changes meaning.
pub const NOMINAL_CORE_NS: f64 = 2_000_000.0;
pub const NOMINAL_CACHE_NS: f64 = 3_300_000.0;

/// One run of both kernels, host nanoseconds each.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub core_ns: f64,
    pub cache_ns: f64,
}

/// How strongly a piece of work follows each kernel: its time goes as
/// `core^self.core x cache^self.cache`. Fitted once per workload over the
/// builder's runs (`README.md`, *Speed normalisation*) and frozen with the
/// nominals.
#[derive(Debug, Clone, Copy)]
pub struct Sensitivity {
    pub core: f64,
    pub cache: f64,
}

impl Sensitivity {
    /// Work that fits in L2 (the layer probes): the core's speed alone.
    pub const CORE_ONLY: Sensitivity = Sensitivity {
        core: 1.0,
        cache: 0.0,
    };
}

/// The frozen reference kernels: xorshift64 driving random read-modify-write
/// over a 256 KiB array (how fast the core is) and over an 8 MiB array (how
/// contended the shared cache and memory are). Their run time just before
/// and after a piece of work says how fast the box was while that work ran.
/// They allocate nothing after start-up, so a product change cannot move
/// them.
pub struct Kernel {
    core: Vec<u64>,
    cache: Vec<u64>,
    /// Every reading since the last `clear`, so a repetition can print what
    /// the kernels read while it ran.
    pub readings: Vec<Reading>,
}

/// `steps` random read-modify-writes over `mem`; host nanoseconds.
fn rmw(mem: &mut [u64], steps: usize) -> f64 {
    let mask = mem.len() - 1;
    let t = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut mem[(x as usize) & mask];
        *slot = slot.wrapping_add(x);
    }
    black_box(mem);
    t.elapsed().as_nanos() as f64
}

impl Kernel {
    pub fn new() -> Kernel {
        Kernel {
            core: (0..CORE_WORDS as u64).collect(),
            cache: (0..CACHE_WORDS as u64).collect(),
            readings: Vec::new(),
        }
    }

    /// One run of both kernels.
    pub fn run(&mut self) -> Reading {
        let reading = Reading {
            core_ns: rmw(&mut self.core, CORE_STEPS),
            cache_ns: rmw(&mut self.cache, CACHE_STEPS),
        };
        self.readings.push(reading);
        reading
    }

    /// The core kernel alone, for the layer probes: their fixtures fit in
    /// L2 and run back to back, so the cache kernel would stay warm between
    /// readings and read something else than it does after a chunk.
    pub fn run_core(&mut self) -> Reading {
        Reading {
            core_ns: rmw(&mut self.core, CORE_STEPS),
            cache_ns: NOMINAL_CACHE_NS,
        }
    }
}

/// Speed factor of work bracketed by two kernel readings: what its time is
/// multiplied by to read as on a quiet box.
pub fn factor(s: Sensitivity, before: Reading, after: Reading) -> f64 {
    let core = (before.core_ns + after.core_ns) / 2.0 / NOMINAL_CORE_NS;
    let cache = (before.cache_ns + after.cache_ns) / 2.0 / NOMINAL_CACHE_NS;
    1.0 / (core.powf(s.core) * cache.powf(s.cache))
}

/// What a repetition records beyond plain timing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mode {
    /// Harness spans around layer calls, allocation counting, virtual
    /// per-op latencies.
    pub spans: bool,
    /// The product's own `TraceLog`, folded per chunk into virtual self
    /// times.
    pub tracelog: bool,
}

/// Everything one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Speed-normalised set-up time, seconds.
    pub setup_s: f64,
    pub attempted: u64,
    pub committed: u64,
    pub failed: u64,
    /// Σ speed-normalised chunk time, seconds.
    pub norm_s: f64,
    /// Σ raw chunk time, seconds.
    pub raw_s: f64,
    /// Speed-normalised time of each chunk, seconds.
    pub chunk_s: Vec<f64>,
    /// Speed-normalised latency of each committed op in issue order,
    /// nanoseconds (`f32`: 200 000 ops x 8 repetitions stay small next to
    /// the smallest workload's footprint).
    pub lat_ns: Vec<f32>,
    /// This repetition's own latency percentiles, microseconds (printed;
    /// the reported ones are taken across repetitions, see [`across`]).
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
    /// Per-chunk speed factors.
    pub factors: Vec<f64>,
    /// Median (core, cache) kernel time over the repetition, milliseconds.
    pub kernel_ms: (f64, f64),
    /// Registry counters over the measured window (after − before).
    pub delta: BTreeMap<String, u64>,
    /// Registry counters over the whole repetition: load, warm-up and the
    /// measured window (the registry is born with the deployment).
    pub totals: BTreeMap<String, u64>,
    /// Registry gauges at the end of the window.
    pub gauges: BTreeMap<String, i64>,
    /// Virtual time the measured window took, nanoseconds.
    pub virtual_ns: u64,
    /// Determinism hash (see [`work_hash`]).
    pub hash: u64,
    /// Per layer-call span name: (Σ speed-normalised ns, calls).
    pub calls: BTreeMap<&'static str, (f64, u64)>,
    /// Virtual latency of every committed op, nanoseconds (`Mode::spans`).
    pub virtual_lat_ns: Vec<u64>,
    /// Virtual self time per product span, nanoseconds (`Mode::tracelog`).
    pub sim_self_ns: BTreeMap<String, u64>,
    /// Heap (bytes, allocations) over the measured window (`Mode::spans`).
    pub heap: (u64, u64),
}

impl Rep {
    pub fn tput_ops_s(&self) -> f64 {
        self.committed as f64 / self.norm_s
    }

    /// Counter delta per committed operation.
    pub fn per_op(&self, key: &str) -> f64 {
        self.delta.get(key).copied().unwrap_or(0) as f64 / self.committed as f64
    }
}

/// Set a workload up and run its measured window. The workload comes back
/// so the caller can run its correctness check.
pub fn repetition(
    spec: Spec,
    seed: u64,
    kernel: &mut Kernel,
    mode: Mode,
    spans: &mut Spans,
) -> (Rep, Box<dyn Workload>) {
    let mut rep = Rep::default();

    kernel.readings.clear();
    kernel.run(); // a reading on either side of set-up, with the chunks' 40
    let t = Instant::now();
    let mut w = (spec.build)(seed);
    let setup_raw_s = t.elapsed().as_secs_f64();
    let mut k_prev = kernel.run();

    let reg = std::sync::Arc::clone(w.dep().metrics());
    if mode.tracelog {
        reg.trace().set_capacity(1 << 21);
        reg.trace().enable();
    }
    let before = reg.counter_values();
    let v0 = w.ctx().now();

    let mut raw_ns: Vec<f64> = Vec::with_capacity(spec.chunk_ops);
    rep.lat_ns.reserve(K * spec.chunk_ops);
    if mode.spans {
        rep.virtual_lat_ns.reserve(K * spec.chunk_ops);
    }
    for _ in 0..K {
        raw_ns.clear();
        let mark = spans.rows.len();
        alloc::arm(mode.spans);
        let t0 = Instant::now();
        let mut prev = t0;
        for _ in 0..spec.chunk_ops {
            let vb = w.ctx().now();
            let out = spans.operation(spec.name, |sp| w.op(sp));
            let now = Instant::now();
            match out {
                Outcome::Committed => {
                    rep.committed += 1;
                    raw_ns.push((now - prev).as_nanos() as f64);
                    if mode.spans {
                        rep.virtual_lat_ns.push((w.ctx().now() - vb).as_nanos());
                    }
                }
                Outcome::Rollback => {}
                Outcome::Failed => rep.failed += 1,
            }
            prev = now;
        }
        let chunk_ns = (prev - t0).as_nanos() as f64;
        alloc::arm(false);
        rep.attempted += spec.chunk_ops as u64;

        if mode.tracelog {
            // Every product span is closed between operations, so folding
            // chunk by chunk loses nothing and bounds the ring.
            let profile = Profile::from_events(&reg.trace().events());
            reg.trace().clear();
            for (op, stat) in profile.ops {
                *rep.sim_self_ns.entry(op).or_default() += stat.self_ns;
            }
        }

        let k = kernel.run();
        let f = factor(spec.sensitivity, k_prev, k);
        k_prev = k;
        rep.factors.push(f);
        rep.raw_s += chunk_ns / 1e9;
        rep.norm_s += chunk_ns * f / 1e9;
        rep.chunk_s.push(chunk_ns * f / 1e9);
        rep.lat_ns.extend(raw_ns.iter().map(|ns| (ns * f) as f32));
        for s in &spans.rows[mark..] {
            if s.parent != 0 {
                let e = rep.calls.entry(s.name).or_default();
                e.0 += (s.end_ns - s.start_ns) as f64 * f;
                e.1 += 1;
            }
        }
    }
    reg.trace().disable();
    rep.heap = alloc::take();
    // Set-up is one piece of work between two readings, and the one before
    // it follows the previous repetition's teardown, which now and then
    // doubles it; the median of the repetition's 42 readings does not care.
    let of = |f: fn(&Reading) -> f64| median(&kernel.readings.iter().map(f).collect::<Vec<_>>());
    let typical = Reading {
        core_ns: of(|r| r.core_ns),
        cache_ns: of(|r| r.cache_ns),
    };
    rep.kernel_ms = (typical.core_ns / 1e6, typical.cache_ns / 1e6);
    rep.setup_s = setup_raw_s * factor(spec.sensitivity, typical, typical);
    let lat_ns: Vec<f64> = rep.lat_ns.iter().map(|ns| *ns as f64).collect();
    rep.lat_p50_us = p50(&lat_ns) / 1e3;
    rep.lat_p99_us = p99(&lat_ns) / 1e3;

    let after = reg.counter_values();
    rep.virtual_ns = (w.ctx().now() - v0).as_nanos();
    rep.hash = work_hash(&rep, w.ctx().now().as_nanos(), &after);
    rep.delta = after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect();
    rep.totals = after;
    rep.gauges = reg.gauge_values();
    (rep, w)
}

/// Hash of the work a repetition did: committed/attempted/failed counts,
/// the final virtual clock and every registry counter. The median over
/// repetitions is only a valid estimator if every repetition did identical
/// work, so the run fails when these differ.
fn work_hash(rep: &Rep, final_clock_ns: u64, counters: &BTreeMap<String, u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in [rep.committed, rep.attempted, rep.failed, final_clock_ns] {
        eat(&v.to_le_bytes());
    }
    for (k, v) in counters {
        eat(k.as_bytes());
        eat(&v.to_le_bytes());
    }
    h
}

/// The three timed metrics of a run, taken across its repetitions.
pub struct Across {
    pub tput_ops_s: f64,
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
    /// Latency samples behind the two percentiles.
    pub samples: usize,
}

/// Every repetition does identical work (the work hash checks it), so chunk
/// *i* and operation *j* are the same work in each: take the median over
/// the repetitions of each chunk's time and of each operation's latency
/// first, then sum the chunks and take percentiles over the operations. A
/// neighbour's burst that lands on one repetition's checkpoint commit, which
/// is what makes a per-repetition p99 jump, is voted out by the other
/// repetitions' timings of that same commit.
pub fn across(reps: &[Rep]) -> Across {
    let over = |of: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(of).collect::<Vec<_>>());
    let chunks = reps[0].chunk_s.len();
    let ops = reps[0].lat_ns.len();
    assert!(
        reps.iter()
            .all(|r| r.chunk_s.len() == chunks && r.lat_ns.len() == ops),
        "repetitions of different shape"
    );
    let seconds: f64 = (0..chunks).map(|i| over(&|r| r.chunk_s[i])).sum();
    let lat_ns: Vec<f64> = (0..ops).map(|j| over(&|r| r.lat_ns[j] as f64)).collect();
    Across {
        tput_ops_s: reps[0].committed as f64 / seconds,
        lat_p50_us: p50(&lat_ns) / 1e3,
        lat_p99_us: p99(&lat_ns) / 1e3,
        samples: ops,
    }
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an unsorted sample (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A quantile as the mean of the order statistics between two quantiles
/// around it (a uniform-kernel quantile estimator). Both reported
/// percentiles sit on cliffs of a two-mode distribution, where a handful of
/// operations changing mode moves the plain order statistic by a third; the
/// window mean moves in proportion.
fn window_mean(values: &[f64], from: f64, to: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let lo = (from * n).floor() as usize;
    let hi = ((to * n).ceil() as usize).clamp(lo + 1, v.len());
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// The median as the window mean p40..p60: `lookup_ebp`'s plain p50 sits
/// on the step between two modes of its cache hits (p45 2.8 us, p50 4.3 us,
/// p55 5.1 us).
pub fn p50(values: &[f64]) -> f64 {
    window_mean(values, 0.40, 0.60)
}

/// The 99th percentile as the window mean p98.5..p99.5: `commit_wide`'s
/// plain p99 sits between plain commits and those that ship to the
/// PageStore (p98.5 175 us, p99 603 us, p99.5 1722 us).
pub fn p99(values: &[f64]) -> f64 {
    window_mean(values, 0.985, 0.995)
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
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
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
