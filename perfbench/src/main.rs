//! The repository benchmark: runs one named workload with a seed, checks
//! its outputs, and prints its metrics as the last line of stdout.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <drain-native|drain-dsl|drain-ooc|serve-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures with tracing off, in [`PARTS`] fresh processes
//! that each run a share of `--seconds`. It prints the latency, update
//! and rate metrics over the samples of all processes pooled, and the
//! median over the processes of the others. Host-timed metrics are
//! scaled to a reference host speed (see `calib`). `--trace 1` runs one
//! process that alternates traced and untraced halves, runs the
//! per-layer probes, writes the spans next to the build output and prints
//! the per-layer metrics (with the tracing overhead on each end-to-end
//! metric). See `perfbench/README.md` for the metric catalogue.

mod calib;
mod drain;
mod metrics;
mod openloop;
mod probes;
mod serve;
mod stats;
mod trace;
mod workload;

use metrics::{Metrics, Samples, OVERHEAD};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;

/// Processes per untraced run. Each runs the workload for its share of
/// `--seconds` from a fresh start, and every metric is the median over
/// them: a fresh process resamples what a shared host fixes once per
/// process (memory layout, allocator and page state), which alone moved
/// single-process update latency by half between runs.
const PARTS: usize = 3;

/// The workloads, by their `--workload` name.
const WORKLOADS: [&str; 4] = ["drain-native", "drain-dsl", "drain-ooc", "serve-churn"];

/// Which set-ups of a run are traced, in order; the run continues with
/// the last one. A traced run sets up four times, traced / untraced /
/// untraced / traced, so a drift from the first (cold) set-up to the
/// last weighs on both halves alike. An untraced process sets up once
/// (more set-ups in one process leave allocator arenas behind that make
/// its peak RSS vary from run to run), and `setup_s` is the median over
/// the set-ups of all processes of the run.
pub fn setups(trace: bool) -> &'static [bool] {
    if trace {
        &[true, false, false, true]
    } else {
        &[false]
    }
}

/// Parsed command line.
pub struct Run {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the processes a run starts: which part this is.
    part: Option<usize>,
    origin: Instant,
}

/// Everything one workload run produced.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    e2e: Metrics,
    /// The untraced samples behind the pooled end-to-end metrics.
    samples: Samples,
    layers: Metrics,
    tracer: Tracer,
    /// Human-readable timing summaries (median, tail, sample count).
    lines: Vec<String>,
}

impl Outcome {
    fn new(origin: Instant) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            e2e: Metrics::default(),
            samples: Samples::default(),
            layers: Metrics::default(),
            tracer: Tracer::new(false, origin),
            lines: Vec::new(),
        }
    }

    /// Records a failed output check.
    fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }

    /// `trace.overhead.<metric>`: traced ÷ untraced value of each
    /// end-to-end metric measured in both halves of a traced run.
    fn overhead(&mut self, traced: &Metrics) {
        for name in OVERHEAD {
            let ratio = match (traced.get(name), self.e2e.get(name)) {
                (Some(t), Some(u)) if u != 0.0 => t / u,
                _ => f64::NAN,
            };
            self.layers.put(format!("trace.overhead.{name}"), ratio);
        }
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        part: None,
        origin: Instant::now(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => run.workload = value.clone(),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => run.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--part" => run.part = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if run.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(run)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Build-output directory: `CARGO_TARGET_DIR` (as `cargo run` sees it)
/// or the package's own `target`.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run.part {
        None => parent(&run),
        Some(part) => child(&run, part),
    }
}

/// Runs the parts one after another and prints the result line: pooled
/// metrics over the samples of every part, the others the median over
/// the parts.
fn parent(run: &Run) -> ExitCode {
    let parts = if run.trace { 1 } else { PARTS };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut pooled = Samples::default();
    for part in 0..parts {
        let output = Command::new(&exe)
            .args(["--workload", &run.workload, "--seed", &run.seed.to_string()])
            .args(["--seconds", &(run.seconds / parts as f64).to_string()])
            .args(["--trace", if run.trace { "1" } else { "0" }])
            .args(["--part", &part.to_string()])
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("perfbench: part {part} failed: {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: cannot start part {part}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut finished = false;
        for line in String::from_utf8_lossy(&output.stdout).lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            if pooled.absorb(&fields) {
                continue;
            }
            match fields.as_slice() {
                ["METRIC", name, value] => {
                    let v = value.parse().unwrap_or(f64::NAN);
                    values.entry(name.to_string()).or_default().push(v);
                }
                ["RESULT", ok, a, f] => {
                    correct &= *ok == "true";
                    attempted += a.parse::<u64>().unwrap_or(0);
                    failed += f.parse::<u64>().unwrap_or(0);
                    finished = true;
                }
                _ => println!(
                    "{}{line}",
                    if parts > 1 {
                        format!("[part {part}] ")
                    } else {
                        String::new()
                    }
                ),
            }
        }
        if !finished {
            eprintln!("perfbench: part {part} printed no result");
            return ExitCode::FAILURE;
        }
    }
    // Simulated time is a function of the seed alone.
    if values
        .get("sim_s")
        .is_some_and(|v| v.iter().any(|&x| x != v[0]))
    {
        println!("# CHECK FAILED: the parts disagree on sim_s");
        correct = false;
    }
    let mut medians = Metrics::default();
    for (name, v) in &values {
        medians.put(name.clone(), stats::median(v));
    }
    if !run.trace {
        pooled.metrics(&mut medians);
    }
    let catalogue = if run.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    match metrics::result_line(correct, attempted.max(1), failed, &medians, &catalogue) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload once in this process and prints its metrics as
/// `METRIC <name> <value>` lines and a closing
/// `RESULT <correct> <attempted> <failed>` line.
fn child(run: &Run, part: usize) -> ExitCode {
    // Out-of-core spill files go to the temp dir: keep them in the build
    // output, not the system's /tmp.
    let scratch = target_dir().join(format!("perfbench-tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", &scratch);

    let mut out = match run.workload.as_str() {
        "drain-native" => drain::run(drain::Drain::Native, run),
        "drain-dsl" => drain::run(drain::Drain::Dsl, run),
        "drain-ooc" => drain::run(drain::Drain::Ooc, run),
        "serve-churn" => serve::run(run),
        other => unreachable!("parse admits only known workloads, got {other}"),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    out.e2e
        .put("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));

    if run.trace {
        let name = format!("perfbench-spans-{}-{}-{part}.jsonl", run.workload, run.seed);
        let path = target_dir().join(name);
        match out.tracer.write(&path) {
            Ok(()) => println!("# spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
        }
    }
    for line in &out.lines {
        println!("{line}");
    }
    for p in &out.problems {
        println!("# CHECK FAILED: {p}");
    }
    if !run.trace {
        for line in out.samples.lines() {
            println!("{line}");
        }
    }
    let values = if run.trace { &out.layers } else { &out.e2e };
    for (name, value) in values.iter() {
        println!("METRIC {name} {value:?}");
    }
    println!(
        "RESULT {} {} {}",
        out.problems.is_empty(),
        out.attempted,
        out.failed
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let run = parse(&args(
            "--workload drain-ooc --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (run.workload.as_str(), run.seed, run.seconds, run.trace),
            ("drain-ooc", 42, 10.0, true)
        );
        assert!(parse(&args("--workload nope --seed 1")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--workload serve-churn --trace 2")).is_err());
        assert!(parse(&args("--workload serve-churn --seconds")).is_err());
        assert!(parse(&args("--workload serve-churn --seconds -1")).is_err());
    }
}
