//! Host-time benchmark of the veDB/AStore reproduction. See `README.md`.

mod alloc;
mod harness;
mod layers;
mod probes;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use vedb_bench::diff::{parse_json, Json};

use harness::{median, percentile, Kernel, Mode, Rep, K, NOMINAL_CACHE_NS, NOMINAL_CORE_NS};
use trace::Spans;
use workloads::{Spec, SPECS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Fewest repetitions a run reports a median over.
const MIN_REPS: usize = 3;

const USAGE: &str = "usage: vedb-benchmark [run|trace|selftest] [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        workload: None,
        seed: 7,
        seconds: 0.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().unwrap_or_default();
        }
    }
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match args.command.as_str() {
        "run" | "selftest" => {}
        "trace" => {
            args.command = "run".into();
            args.trace = true;
        }
        other => return Err(format!("unknown command {other}")),
    }
    if let Some(w) = &args.workload {
        if workloads::spec(w).is_none() {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(args)
}

/// One metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    /// `Some` for end-to-end metrics.
    bound: Option<f64>,
    /// `higher` or `lower`.
    better: String,
}

/// The contract file: metric names, units and bounds live there, not here.
struct Contract {
    run_seconds: f64,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn load_contract() -> Result<Contract, String> {
    let path = benchmark_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse_json(&text)?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            return Err(format!("BENCHMARK.json: no {key} list"));
        };
        items
            .iter()
            .map(|m| {
                let text = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {k}"))
                };
                Ok(Declared {
                    name: text("name")?,
                    unit: text("unit")?,
                    bound: m.get("bound").and_then(Json::as_f64),
                    better: text("better")?,
                })
            })
            .collect()
    };
    Ok(Contract {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")?,
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

fn main() -> ExitCode {
    let outcome = parse_args()
        .map_err(|e| format!("{e}\n{USAGE}"))
        .and_then(|mut args| {
            let contract = load_contract()?;
            if args.seconds <= 0.0 {
                args.seconds = contract.run_seconds;
            }
            match (args.command.as_str(), &args.workload) {
                ("selftest", _) => selftest(&args, &contract),
                (_, Some(name)) => {
                    let spec = workloads::spec(name).expect("validated in parse_args");
                    one_workload(spec, &args, &contract)
                }
                (_, None) => all_workloads(&args).map(|_| ()),
            }
        });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn header(spec: Spec, args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps = if args.trace {
        "3 (TraceLog+spans, untraced, spans)".to_string()
    } else {
        format!("until {}s measured (min {MIN_REPS})", args.seconds)
    };
    println!(
        "== {} == nproc={nproc} client_threads=1 R={reps} K={K} C={} seed={} NOMINAL={NOMINAL_CORE_NS}/{NOMINAL_CACHE_NS}ns sensitivity={}/{} trace={}",
        spec.name,
        spec.chunk_ops,
        args.seed,
        spec.sensitivity.core,
        spec.sensitivity.cache,
        args.trace as u8
    );
}

/// Run one workload in this process and print its result line.
fn one_workload(spec: Spec, args: &Args, contract: &Contract) -> Result<(), String> {
    header(spec, args);
    let mut kernel = Kernel::new();
    kernel.run(); // fault the arrays in
    let (declared, result) = if args.trace {
        (&contract.per_layer, traced_run(spec, args, &mut kernel)?)
    } else {
        (&contract.end_to_end, untraced_run(spec, args, &mut kernel)?)
    };
    if result.failed > 0 {
        return Err(format!(
            "{} of {} operations failed",
            result.failed, result.attempted
        ));
    }
    print_result(declared, &result)
}

/// What a run hands to the result line.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn check_same_work(reps: &[Rep]) -> Result<(), String> {
    let first = reps[0].hash;
    println!("  work hash {first:016x} ({} repetitions)", reps.len());
    if let Some(i) = reps.iter().position(|r| r.hash != first) {
        for (key, v0) in &reps[0].delta {
            let vi = reps[i].delta.get(key).copied().unwrap_or(0);
            if vi != *v0 {
                println!("  differs: {key} {v0} (repetition 0) vs {vi} (repetition {i})");
            }
        }
        return Err(format!(
            "repetition {i} did different work (hash {:016x} != {first:016x}): the median over repetitions is not valid",
            reps[i].hash
        ));
    }
    Ok(())
}

/// Repetitions until `--seconds` of measured time, the timed metrics taken
/// across them (`harness::across`), the others as medians over them.
fn untraced_run(spec: Spec, args: &Args, kernel: &mut Kernel) -> Result<RunResult, String> {
    let mut spans = Spans::off();
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured_s = 0.0;
    let mut peak_rss_mb;
    loop {
        let (rep, w) = harness::repetition(spec, args.seed, kernel, Mode::default(), &mut spans);
        // Sampled before the correctness check, whose own memory (a second
        // engine during crash recovery) is not the workload's.
        peak_rss_mb = harness::peak_rss_mb();
        measured_s += rep.raw_s;
        let last = measured_s >= args.seconds && reps.len() + 1 >= MIN_REPS;
        w.check(last)?;
        println!(
            "  rep {:2}: setup {:.3}s  {:.0} op/s  p50 {:.1}us  p99 {:.1}us  ({} committed of {}, {} failed, {:.2}s raw, kernels {:.3}/{:.3}ms, peak rss {:.0}MB)",
            reps.len(),
            rep.setup_s,
            rep.tput_ops_s(),
            rep.lat_p50_us,
            rep.lat_p99_us,
            rep.committed,
            rep.attempted,
            rep.failed,
            rep.raw_s,
            rep.kernel_ms.0,
            rep.kernel_ms.1,
            peak_rss_mb,
        );
        reps.push(rep);
        if last {
            break;
        }
    }
    check_same_work(&reps)?;

    let over = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let timed = harness::across(&reps);
    let mut metrics = BTreeMap::new();
    metrics.insert("tput_ops_s".into(), timed.tput_ops_s);
    metrics.insert("lat_p50_us".into(), timed.lat_p50_us);
    metrics.insert("lat_p99_us".into(), timed.lat_p99_us);
    // Set-up included, so the read-only workloads (whose measured window
    // persists nothing) still report the PMem bytes their load cost.
    metrics.insert(
        "pmem_kb_per_op".into(),
        over(&|r| r.totals["pmem.bytes_persisted"] as f64 / 1024.0 / r.committed as f64),
    );
    metrics.insert("peak_rss_mb".into(), peak_rss_mb);
    metrics.insert("setup_s".into(), over(&|r| r.setup_s));
    let factors: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.factors.iter().copied())
        .collect();
    println!(
        "  samples: {} repetitions x {} latency samples, {:.1}s measured; speed factor p10 {:.3} p50 {:.3} p90 {:.3}",
        reps.len(),
        timed.samples,
        measured_s,
        percentile(&factors, 10.0),
        percentile(&factors, 50.0),
        percentile(&factors, 90.0),
    );
    Ok(RunResult {
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics,
    })
}

/// The traced run: one repetition with harness spans and the product's
/// `TraceLog` on, one untraced (the overhead baseline), one with harness
/// spans only, then the layer probes.
fn traced_run(spec: Spec, args: &Args, kernel: &mut Kernel) -> Result<RunResult, String> {
    // The TraceLog repetition goes first: its host times are not used, so
    // it absorbs the process's first-repetition page faults and the two
    // repetitions compared for `trace.overhead_pct` run alike.
    let mut spans = Spans::new(true);
    let both = Mode {
        spans: true,
        tracelog: true,
    };
    let (deep, w) = harness::repetition(spec, args.seed, kernel, both, &mut spans);
    w.check(false)?;
    let (plain, w) =
        harness::repetition(spec, args.seed, kernel, Mode::default(), &mut Spans::off());
    w.check(false)?;
    let spans_only = Mode {
        spans: true,
        tracelog: false,
    };
    let (traced, w) = harness::repetition(spec, args.seed, kernel, spans_only, &mut spans);
    w.check(true)?;

    let reps = [plain, traced, deep];
    check_same_work(&reps)?;
    let path = benchmark_dir()
        .join("out")
        .join(format!("{}-spans.jsonl", spec.name));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  wrote {} spans to {}", spans.rows.len(), path.display());

    let [plain, traced, deep] = reps;
    let mut metrics = layers::metrics(&plain, &traced, &deep);
    metrics.extend(probes::run(kernel, args.seed));
    layers::estimates(&mut metrics, &traced);
    Ok(RunResult {
        attempted: traced.attempted,
        failed: traced.failed,
        metrics,
    })
}

/// Print every computed metric by name with its unit, then the contract's
/// result line: exactly the declared metrics, each with its declared unit.
fn print_result(declared: &[Declared], result: &RunResult) -> Result<(), String> {
    for (name, value) in &result.metrics {
        let unit = declared
            .iter()
            .find(|d| &d.name == name)
            .map_or("", |d| d.unit.as_str());
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    let mut line = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.attempted, result.failed
    );
    for (i, d) in declared.iter().enumerate() {
        let value = match result.metrics.get(&d.name) {
            Some(v) if v.is_finite() => *v,
            Some(_) => return Err(format!("metric {} is not finite", d.name)),
            // A per-layer metric a workload has no call for reads 0.
            None if d.bound.is_none() => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", d.name)),
        };
        if i > 0 {
            line.push_str(", ");
        }
        line.push_str(&format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    line.push_str("}}");
    println!("{line}");
    Ok(())
}

/// A workload and the metrics of its result line.
type WorkloadMetrics = (Spec, BTreeMap<String, f64>);

/// Run every workload, each in its own child process so `peak_rss_mb`
/// belongs to it.
fn all_workloads(args: &Args) -> Result<Vec<WorkloadMetrics>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut out = Vec::new();
    for spec in SPECS {
        let started = Instant::now();
        let child = Command::new(&exe)
            .args(["run", "--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", spec.name))?;
        let output = child
            .wait_with_output()
            .map_err(|e| format!("wait {}: {e}", spec.name))?;
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        if !output.status.success() {
            return Err(format!("workload {} failed", spec.name));
        }
        let last = text.lines().last().unwrap_or_default();
        let doc = parse_json(last).map_err(|e| format!("{} result line: {e}", spec.name))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{} result line has no metrics", spec.name))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        println!(
            "  ({} took {:.1}s)",
            spec.name,
            started.elapsed().as_secs_f64()
        );
        out.push((spec, metrics));
    }
    Ok(out)
}

/// Run the whole benchmark twice back to back; fail if any end-to-end
/// metric on any workload got worse or better by more than its bound.
fn selftest(args: &Args, contract: &Contract) -> Result<(), String> {
    let first = all_workloads(args)?;
    let second = all_workloads(args)?;
    let mut bad = Vec::new();
    println!("== selftest: second run against first ==");
    for ((spec, a), (_, b)) in first.iter().zip(&second) {
        for d in &contract.end_to_end {
            let (x, y) = (a[&d.name], b[&d.name]);
            let diff = (y - x).abs() / x.abs();
            let bound = d.bound.unwrap_or(0.0);
            let verdict = if diff <= bound { "ok" } else { "OUT OF BOUND" };
            println!(
                "  {:<13} {:<15} {x:>14.4} {y:>14.4} {:>6.2}% (bound {:.0}%, {} is better) {verdict}",
                spec.name,
                d.name,
                diff * 100.0,
                bound * 100.0,
                d.better,
            );
            if diff > bound {
                bad.push(format!("{}/{}", spec.name, d.name));
            }
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("selftest: out of bound: {}", bad.join(", ")))
    }
}
