//! `spitz-benchmark`: the repository's one benchmark.
//!
//! ```text
//! spitz-benchmark --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command does)
//! spitz-benchmark all [--smoke] [--seed N] [--seconds S] [--out F]  every workload, untraced then traced
//! spitz-benchmark check-manifest [FILE]                            validate BENCHMARK.json against the binary
//! spitz-benchmark compare --base F... --new F... [--manifest FILE] judge two sets of result files
//! ```
//!
//! See `benchmark/README.md` for the metric glossary and the workloads.

mod adapter;
mod compare;
mod gen;
mod json;
mod manifest;
mod metrics;
mod replay;
mod run;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Value;

/// The four workloads. Later issues refer to them by these names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    IngestDurable,
    PointVerified,
    ScanVerified,
    ServedMixed,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::IngestDurable,
        WorkloadKind::PointVerified,
        WorkloadKind::ScanVerified,
        WorkloadKind::ServedMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::IngestDurable => "ingest_durable",
            WorkloadKind::PointVerified => "point_verified",
            WorkloadKind::ScanVerified => "scan_verified",
            WorkloadKind::ServedMixed => "served_mixed",
        }
    }

    /// Why the workload exists; `BENCHMARK.json` records the same reasons.
    pub fn why(self) -> &'static str {
        match self {
            WorkloadKind::IngestDurable => {
                "durable writes only: storage append/fsync, ledger+pipeline, index insert and txn/2PC work while every proof path is idle"
            }
            WorkloadKind::PointVerified => {
                "verified point, batched and absent reads on data that fits the chunk cache: index prove, hashing and proof checking, no writes, no server"
            }
            WorkloadKind::ScanVerified => {
                "verified 500-entry scans with live data over 4x the chunk cache: range proofs, the cross-shard merge and the storage read-miss path"
            }
            WorkloadKind::ServedMixed => {
                "light clients over loopback TCP mixing verified reads with puts: server framing, threads and proof cache, with writes invalidating beside reads"
            }
        }
    }

    fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Keys loaded before the run. Sized so that three set-ups, the warm-up,
    /// the timed phase and the checks of one run fit the driver's time cap
    /// (loading costs about 100 us per key).
    pub fn loaded_keys(self, smoke: bool) -> usize {
        match (smoke, self) {
            (true, _) => 2_000,
            (false, WorkloadKind::IngestDurable) => 10_000,
            (false, _) => 20_000,
        }
    }

    /// Chunk-cache budget per shard when it differs from the crate default:
    /// `scan_verified` shrinks it until live data is over four times the
    /// total cache (sizes in the README).
    pub fn cache_bytes_per_shard(self) -> Option<usize> {
        match self {
            WorkloadKind::ScanVerified => Some(256 * 1024),
            _ => None,
        }
    }

    /// Entries per verified scan.
    pub fn range_len(self) -> u32 {
        match self {
            WorkloadKind::ServedMixed => 100,
            _ => 500,
        }
    }

    /// Mix cycles generated per client: more ops than a run can finish (a
    /// client that does run out starts its stream again).
    pub fn stream_cycles(self, smoke: bool) -> usize {
        let cycles = match self {
            WorkloadKind::IngestDurable => 12_000,
            WorkloadKind::PointVerified => 24_000,
            WorkloadKind::ScanVerified => 24_000,
            WorkloadKind::ServedMixed => 8_000,
        };
        if smoke {
            cycles / 8
        } else {
            cycles
        }
    }

    /// Ops per client whose downloaded bytes make up `wire_bytes_per_op` on
    /// the in-process workloads: a fixed prefix of the stream, far fewer
    /// than any run completes, so the figure repeats exactly for a seed.
    pub fn census_ops(self) -> usize {
        match self {
            WorkloadKind::IngestDurable => 1_000,
            WorkloadKind::PointVerified => 10_000,
            WorkloadKind::ScanVerified => 1_000,
            WorkloadKind::ServedMixed => 0,
        }
    }
}

/// Everything a run writes goes under the build's target directory, next to
/// the binary: inside the checkout, and ignored by git.
fn scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("spitz-benchmark-data")
}

struct Flags {
    values: Vec<(String, Vec<String>)>,
}

impl Flags {
    /// `--name value...` groups; a flag followed by another flag is a switch.
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut values: Vec<(String, Vec<String>)> = Vec::new();
        for arg in args {
            match arg.strip_prefix("--") {
                Some(name) => values.push((name.to_string(), Vec::new())),
                None => match values.last_mut() {
                    Some((_, list)) => list.push(arg.clone()),
                    None => return Err(format!("unexpected argument \"{arg}\"")),
                },
            }
        }
        Ok(Flags { values })
    }

    fn has(&self, name: &str) -> bool {
        self.values.iter().any(|(n, _)| n == name)
    }

    fn list(&self, name: &str) -> &[String] {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    fn one(&self, name: &str) -> Option<&str> {
        self.list(name).first().map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.one(name) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: cannot read \"{text}\"")),
            None => Ok(default),
        }
    }
}

const DEFAULT_SEED: u64 = 1;

fn check_manifest(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e} (run from the repository root)", path.display()))?;
    let errors = manifest::check(&text);
    if errors.is_empty() {
        Ok(text)
    } else {
        Err(format!(
            "{} is not a valid manifest for this binary:\n  {}",
            path.display(),
            errors.join("\n  ")
        ))
    }
}

fn result_json(report: &run::Report) -> Value {
    json::obj(vec![
        ("correct", Value::Bool(report.correct)),
        ("attempted", json::num(report.attempted as f64)),
        ("failed", json::num(report.failed as f64)),
        (
            "metrics",
            Value::Obj(
                report
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            json::obj(vec![
                                ("value", json::num(m.value)),
                                ("unit", json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One run, as the driver invokes it.
fn cmd_run(flags: &Flags) -> Result<(), String> {
    let manifest_text = check_manifest(Path::new("BENCHMARK.json"))?;
    let name = flags.one("workload").ok_or("--workload is required")?;
    let workload = WorkloadKind::parse(name).ok_or_else(|| {
        let names: Vec<_> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload \"{name}\"; the workloads are {}",
            names.join(", ")
        )
    })?;
    let seed: u64 = flags.parsed("seed", DEFAULT_SEED)?;
    let default_seconds = json::parse(&manifest_text)
        .ok()
        .and_then(|m| m.get("run_seconds").and_then(Value::as_f64))
        .unwrap_or(10.0);
    let smoke = flags.has("smoke");
    let seconds: f64 = flags.parsed("seconds", if smoke { 1.0 } else { default_seconds })?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be above 0 and at most 60".to_string());
    }
    let trace = match flags.one("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not \"{other}\"")),
    };
    let scratch = scratch_root().join(format!("run-{}", std::process::id()));
    let trace_file = flags.one("trace-file").map_or_else(
        || scratch_root().join(format!("traces/{}-seed{seed}.jsonl", workload.name())),
        PathBuf::from,
    );
    let args = run::RunArgs {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        trace_file,
        scratch: scratch.clone(),
    };
    let report = run::run(&args).inspect_err(|_| {
        let _ = std::fs::remove_dir_all(&scratch);
    })?;
    let result = result_json(&report);
    if let Some(out) = flags.one("out") {
        let line = json::obj(vec![
            ("workload", json::str(workload.name())),
            ("seed", json::num(seed as f64)),
            ("seconds", json::num(seconds)),
            ("trace", json::num(f64::from(u8::from(trace)))),
            ("result", result.clone()),
        ]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(|e| format!("{out}: {e}"))?;
        writeln!(file, "{}", line.render()).map_err(|e| format!("{out}: {e}"))?;
    }
    let stdout = std::io::stdout();
    let mut stdout = stdout.lock();
    for note in &report.notes {
        writeln!(stdout, "{note}").map_err(|e| e.to_string())?;
    }
    for metric in &report.metrics {
        writeln!(
            stdout,
            "{:<40} {:>18.6} {}",
            metric.name, metric.value, metric.unit
        )
        .map_err(|e| e.to_string())?;
    }
    writeln!(stdout, "{}", result.render()).map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())
}

/// Every workload, untraced then traced, each in a process of its own so
/// that peak memory and set-up are per run. Prints one table.
fn cmd_all(flags: &Flags) -> Result<(), String> {
    check_manifest(Path::new("BENCHMARK.json"))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failures = Vec::new();
    for workload in WorkloadKind::ALL {
        for trace in ["0", "1"] {
            let mut command = Command::new(&exe);
            command
                .args(["--workload", workload.name(), "--trace", trace])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit());
            for name in ["seed", "seconds", "out"] {
                if let Some(value) = flags.one(name) {
                    command.args([format!("--{name}"), value.to_string()]);
                }
            }
            if flags.has("smoke") {
                command.arg("--smoke");
            }
            // `output` waits for the child to end before it returns.
            let output = command.output().map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&output.stdout);
            let last = text.lines().last().unwrap_or("");
            println!("== {} (trace {trace})", workload.name());
            match (output.status.success(), json::parse(last)) {
                (true, Ok(result)) => {
                    for line in text.lines().filter(|l| *l != last) {
                        println!("{line}");
                    }
                    let failed = result.get("failed").and_then(Value::as_f64).unwrap_or(-1.0);
                    let correct = result.get("correct") == Some(&Value::Bool(true));
                    println!(
                        "   correct {correct}, attempted {}, failed {failed}",
                        result
                            .get("attempted")
                            .and_then(Value::as_f64)
                            .unwrap_or(0.0)
                    );
                    if !correct || failed != 0.0 {
                        failures.push(format!(
                            "{} (trace {trace}): failed operations",
                            workload.name()
                        ));
                    }
                }
                _ => {
                    print!("{text}");
                    failures.push(format!(
                        "{} (trace {trace}): exited with {}",
                        workload.name(),
                        output.status
                    ));
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn cmd_compare(flags: &Flags) -> Result<usize, String> {
    let manifest_path = flags.one("manifest").unwrap_or("BENCHMARK.json");
    let text = check_manifest(Path::new(manifest_path))?;
    let bounds = manifest::bounds(&text)?;
    let (base, new) = (flags.list("base"), flags.list("new"));
    if base.is_empty() || new.is_empty() {
        return Err("usage: compare --base FILE... --new FILE... [--manifest FILE]".to_string());
    }
    Ok(compare::report(
        &compare::load(base)?,
        &compare::load(new)?,
        &bounds,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(first) if !first.starts_with("--") => (first, &args[1..]),
        _ => ("run", &args[..]),
    };
    let outcome = if command == "check-manifest" {
        let path = rest.first().map_or("BENCHMARK.json", String::as_str);
        check_manifest(Path::new(path)).map(|_| {
            println!(
                "{path}: valid; {} workloads, {} end-to-end and {} per-layer metrics match the binary",
                WorkloadKind::ALL.len(),
                metrics::END_TO_END.len(),
                metrics::PER_LAYER.len()
            );
            0
        })
    } else {
        Flags::parse(rest).and_then(|flags| match command {
            "run" => cmd_run(&flags).map(|()| 0),
            "all" => cmd_all(&flags).map(|()| 0),
            "compare" => cmd_compare(&flags),
            other => Err(format!(
                "unknown command \"{other}\"; the commands are run, all, check-manifest, compare"
            )),
        })
    };
    match outcome {
        Ok(0) => ExitCode::SUCCESS,
        Ok(regressed) => {
            eprintln!("{regressed} row(s) regressed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("spitz-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
