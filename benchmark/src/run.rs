//! One run of one workload: set-up, warm-up, the timed phase(s), the
//! after-run checks, and the metrics computed from them.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::adapter::{self, Client, Counters, Remote};
use crate::gen::{self, Dataset, OpStream};
use crate::metrics::{self, Metric};
use crate::replay::{self, Measured};
use crate::stats::{highest_supported_percentile, median, percentile_sorted};
use crate::trace::{self, TraceSummary, Tracer};
use crate::workloads::{self, Class, ClientState, Fixture, Link, Model, Sample, CLIENT_THREADS};
use crate::WorkloadKind;

/// Untimed warm-up before the timed phase.
const WARMUP: Duration = Duration::from_secs(2);
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

pub struct RunArgs {
    pub workload: WorkloadKind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One-second smoke sizes: small data set, short warm-up, one set-up.
    pub smoke: bool,
    /// Where a traced run writes its spans.
    pub trace_file: PathBuf,
    /// Directory this run may create and delete files under.
    pub scratch: PathBuf,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// What one phase did: its samples, and what moved in the database's public
/// counters and in the clients' own tallies while it ran.
struct Phase {
    samples: Vec<Vec<Sample>>,
    ops: u64,
    failed: u64,
    /// Per window of about one second, in time order: completed ops per
    /// second, p50 and p95 latency in microseconds.
    window_rates: Vec<f64>,
    window_p50: Vec<f64>,
    window_p95: Vec<f64>,
    counters: Counters,
    /// Socket bytes the served clients received.
    received: u64,
    reads: u64,
    repins: u64,
}

impl Phase {
    // Each figure is the median over the windows, so that a single stall
    // moves one window, not the run.

    fn ops_per_s(&self) -> f64 {
        median(&self.window_rates)
    }

    fn p50_us(&self) -> f64 {
        median(&self.window_p50)
    }

    fn p95_us(&self) -> f64 {
        median(&self.window_p95)
    }
}

fn client_totals(clients: &mut [ClientState]) -> (u64, u64, u64) {
    clients
        .iter_mut()
        .fold((0, 0, 0), |(bytes, reads, repins), c| {
            let received = match &mut c.link {
                Link::Served { remote } => remote.bytes_received(),
                Link::InProcess { .. } => 0,
            };
            (bytes + received, reads + c.reads, repins + c.repins)
        })
}

/// Run every client for `duration` and measure what happened around it.
fn measure_phase(
    clients: &mut [ClientState],
    tracers: &mut [Tracer],
    fixture: &Fixture,
    streams: &[OpStream],
    duration: Duration,
    timed: bool,
    traced: bool,
) -> Phase {
    let counters_before = fixture.store.counters();
    let (received_before, reads_before, repins_before) = client_totals(clients);
    for tracer in tracers.iter_mut() {
        tracer.set_on(traced);
    }
    let samples = workloads::run_phase(clients, tracers, streams, duration, timed);
    for tracer in tracers.iter_mut() {
        tracer.set_on(false);
    }
    let (received, reads, repins) = client_totals(clients);

    let windows = (duration.as_secs_f64().round() as usize).max(1);
    let window_ns = duration.as_nanos() as f64 / windows as f64;
    let mut latencies: Vec<Vec<u64>> = vec![Vec::new(); windows];
    let (mut ops, mut failed) = (0u64, 0u64);
    for sample in samples.iter().flatten() {
        ops += 1;
        failed += u64::from(!sample.ok);
        // An op that finishes past the deadline belongs to no window.
        if let Some(window) = latencies.get_mut((sample.end_ns as f64 / window_ns) as usize) {
            window.push(sample.latency_ns);
        }
    }
    let mut phase = Phase {
        samples,
        ops,
        failed,
        window_rates: Vec::with_capacity(windows),
        window_p50: Vec::with_capacity(windows),
        window_p95: Vec::with_capacity(windows),
        counters: counters_since(&counters_before, &fixture.store.counters()),
        received: received - received_before,
        reads: reads - reads_before,
        repins: repins - repins_before,
    };
    for window in &mut latencies {
        window.sort_unstable();
        phase
            .window_rates
            .push(window.len() as f64 / (window_ns / 1e9));
        phase
            .window_p50
            .push(percentile_sorted(window, 50.0) as f64 / 1_000.0);
        phase
            .window_p95
            .push(percentile_sorted(window, 95.0) as f64 / 1_000.0);
    }
    phase
}

/// What the monotonic counters gained between two readings.
fn counters_since(before: &Counters, after: &Counters) -> Counters {
    Counters {
        // Disk bytes can shrink (compaction); a phase reports growth.
        disk_bytes: after.disk_bytes.saturating_sub(before.disk_bytes),
        live_bytes: after.live_bytes,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        commits: after.commits - before.commits,
        fsyncs: after.fsyncs - before.fsyncs,
        group_size_sum: after.group_size_sum - before.group_size_sum,
        group_size_count: after.group_size_count - before.group_size_count,
        txn_committed: after.txn_committed - before.txn_committed,
        txn_aborted: after.txn_aborted - before.txn_aborted,
        twopc_prepares: after.twopc_prepares - before.twopc_prepares,
        twopc_aborts: after.twopc_aborts - before.twopc_aborts,
        io_retries: after.io_retries - before.io_retries,
        server_requests: after.server_requests - before.server_requests,
        server_request_nanos: after.server_request_nanos - before.server_request_nanos,
        server_busy: after.server_busy - before.server_busy,
        proof_cache_hits: after.proof_cache_hits - before.proof_cache_hits,
        proof_cache_misses: after.proof_cache_misses - before.proof_cache_misses,
    }
}

/// Peak resident set of this process, from the kernel's own high-water mark.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// What the explicit `compact()` after a run did to the store.
struct Compaction {
    seconds: f64,
    disk_before: u64,
    disk_after: u64,
    live: u64,
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let workload = args.workload;
    let mut notes = Vec::new();
    let data = Dataset::new(gen::DATA_SEED, workload.loaded_keys(args.smoke));

    // Set up, several times when `setup_s` is reported; keep the last one.
    let repeats = if args.trace || args.smoke {
        1
    } else {
        SETUP_REPEATS
    };
    let mut setup_times = Vec::with_capacity(repeats);
    let mut fixture: Option<Fixture> = None;
    for _ in 0..repeats {
        if let Some(previous) = fixture.take() {
            previous.teardown();
        }
        let began = Instant::now();
        fixture = Some(workloads::set_up(
            workload,
            &data,
            &args.scratch.join("store"),
        )?);
        setup_times.push(began.elapsed().as_secs_f64());
    }
    let mut fixture = fixture.expect("at least one set-up ran");

    // Inputs, generated before anything is timed.
    let model = Model::new(data.loaded());
    let cycles = workload.stream_cycles(args.smoke);
    let warm_streams = workloads::streams_for(workload, &data, args.seed, "warmup", cycles / 4);
    let timed_streams = workloads::streams_for(workload, &data, args.seed, "timed", cycles);
    let warmup = if args.smoke {
        Duration::from_millis(200)
    } else {
        WARMUP
    };
    notes.push(format!(
        "{}: seed {}, {} s timed after {} s warm-up, closed loop of {CLIENT_THREADS} clients, {}",
        workload.name(),
        args.seed,
        args.seconds,
        warmup.as_secs_f64(),
        if args.trace {
            "first half untraced, second half traced"
        } else {
            "tracing off"
        },
    ));
    notes.push(format!(
        "defaults: {}; flush policy {}; {}",
        adapter::default_shape(),
        adapter::flush_policy_description(),
        adapter::segment_description()
    ));
    notes.push(format!(
        "data: {} loaded keys, {} user bytes, zipfian theta {}; chunk cache {} bytes in total{}",
        data.loaded(),
        data.loaded_user_bytes(),
        gen::ZIPF_THETA,
        fixture.cache_bytes_total,
        if fixture.dir.is_none() {
            " (in-memory store)"
        } else {
            ""
        },
    ));
    notes.push(format!(
        "op streams: {} ops per client, fingerprints {}",
        timed_streams[0].ops.len(),
        timed_streams
            .iter()
            .map(|s| format!("{:016x}", s.fingerprint()))
            .collect::<Vec<_>>()
            .join(" "),
    ));

    // Clients: a pinned verifier each, or a light-client connection each.
    // One tracer per client, sharing an epoch so their spans line up.
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..CLIENT_THREADS)
        .map(|_| Tracer::new(false, epoch))
        .collect();
    let mut clients = Vec::with_capacity(CLIENT_THREADS);
    for thread in 0..CLIENT_THREADS {
        let link = match &fixture.served {
            Some(served) => Link::Served {
                remote: Remote::connect(served.addr()).map_err(|e| e.to_string())?,
            },
            None => {
                let mut client = Client::new();
                if !client.pin(&fixture.store.digest()) {
                    return Err("initial digest refused".to_string());
                }
                Link::InProcess {
                    store: &fixture.store,
                    client,
                }
            }
        };
        clients.push(ClientState::new(thread, link, &model, &data));
    }

    // Warm-up on its own stream, then the timed phase: all of `--seconds`
    // untraced, or half untraced and half traced.
    let warm = measure_phase(
        &mut clients,
        &mut tracers,
        &fixture,
        &warm_streams,
        warmup,
        false,
        false,
    );
    let timed = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let untraced = measure_phase(
        &mut clients,
        &mut tracers,
        &fixture,
        &timed_streams,
        timed,
        true,
        false,
    );
    let traced = args.trace.then(|| {
        measure_phase(
            &mut clients,
            &mut tracers,
            &fixture,
            &timed_streams,
            timed,
            true,
            true,
        )
    });

    let phases = [Some(&warm), Some(&untraced), traced.as_ref()];
    let attempted: u64 = phases.iter().flatten().map(|p| p.ops).sum();
    let failed: u64 = phases.iter().flatten().map(|p| p.failed).sum();
    if let Some(error) = clients.iter().find_map(|c| c.first_error.as_ref()) {
        notes.push(format!("first failed operation: {error}"));
    }
    let user_bytes = data.loaded_user_bytes() + clients.iter().map(|c| c.user_bytes).sum::<u64>();
    let queue_depth_max = clients.iter().map(|c| c.queue_depth_max).max().unwrap_or(0);
    drop(clients);

    // After-run checks.
    if workload == WorkloadKind::IngestDurable {
        let (reopened, keys_checked) = workloads::reopen_and_check(fixture, &model, &data)
            .map_err(|e| format!("reopen check failed: {e}"))?;
        notes.push(format!(
            "reopen check: {keys_checked} acknowledged keys read back and verified against the reopened digest (reopen took {:.3} s)",
            reopened.reopen_s
        ));
        fixture = reopened;
    }
    // Disk bytes after the final flush (ingest) or as loaded (the rest),
    // before any compaction, against every user byte acknowledged.
    let stored = fixture.store.counters();
    let mut compaction = None;
    if fixture.dir.is_some() && (args.trace || workload == WorkloadKind::IngestDurable) {
        let began = Instant::now();
        fixture
            .store
            .compact()
            .map_err(|e| format!("compaction failed: {e}"))?;
        let seconds = began.elapsed().as_secs_f64();
        let after = fixture.store.counters();
        notes.push(format!(
            "compaction: {} -> {} disk bytes, {} live, in {seconds:.3} s",
            stored.disk_bytes, after.disk_bytes, after.live_bytes
        ));
        compaction = Some(Compaction {
            seconds,
            disk_before: stored.disk_bytes,
            disk_after: after.disk_bytes,
            live: after.live_bytes,
        });
    }

    let metrics = match &traced {
        None => {
            describe_latency(&untraced, &mut notes);
            notes.push(format!(
                "storage: {} disk bytes for {user_bytes} user bytes; set-ups took {setup_times:?} s",
                stored.disk_bytes
            ));
            let wire_bytes_per_op = if fixture.served.is_some() {
                ratio(untraced.received, untraced.ops)
            } else {
                // The first `census_ops` of each client: a fixed slice of a
                // fixed stream, so the figure repeats exactly for a seed.
                let counted: Vec<&Sample> = untraced
                    .samples
                    .iter()
                    .flat_map(|thread| thread.iter().take(workload.census_ops()))
                    .collect();
                ratio(
                    counted.iter().map(|s| s.wire_bytes).sum(),
                    counted.len() as u64,
                )
            };
            let values = [
                ("setup_s", median(&setup_times)),
                ("ops_per_s", untraced.ops_per_s()),
                ("p50_us", untraced.p50_us()),
                ("p95_us", untraced.p95_us()),
                ("wire_bytes_per_op", wire_bytes_per_op),
                (
                    "stored_bytes_per_user_byte",
                    ratio(stored.disk_bytes, user_bytes),
                ),
                ("peak_rss_mb", peak_rss_mb()),
            ];
            metrics::attach_units(metrics::END_TO_END, &values)?
        }
        Some(traced) => {
            let summary = trace::summarise(&tracers);
            trace::write_jsonl(&args.trace_file, &tracers)
                .map_err(|e| format!("writing {}: {e}", args.trace_file.display()))?;
            notes.push(format!(
                "trace: {} spans written to {}; traced {:.1} ops/s against {:.1} untraced",
                summary.spans,
                args.trace_file.display(),
                traced.ops_per_s(),
                untraced.ops_per_s(),
            ));
            notes.extend(layer_share_table(&summary));
            let mut values = replay_lower_layers(args, &data)?;
            values.extend(workload_counters(
                traced,
                &fixture,
                compaction.as_ref(),
                queue_depth_max,
            ));
            values.extend(core_and_server(
                args, &data, &fixture, &summary, traced, &mut notes,
            )?);
            values.extend([
                (
                    "bench.trace_overhead_frac",
                    1.0 - traced.ops_per_s() / untraced.ops_per_s().max(f64::MIN_POSITIVE),
                ),
                ("bench.span_coverage", summary.coverage),
                ("bench.spans", summary.spans as f64),
            ]);
            metrics::attach_units(metrics::PER_LAYER, &values)?
        }
    };

    fixture.teardown();
    let _ = std::fs::remove_dir_all(&args.scratch);
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Sample count, the highest percentile the sample supports, and the
/// per-class and per-window figures behind the reported medians.
fn describe_latency(phase: &Phase, notes: &mut Vec<String>) {
    let mut all: Vec<u64> = phase
        .samples
        .iter()
        .flatten()
        .map(|s| s.latency_ns)
        .collect();
    all.sort_unstable();
    if let Some(p) = highest_supported_percentile(all.len()) {
        notes.push(format!(
            "latency: {} samples; whole-run p50 {:.1} us, p{p} {:.1} us (the highest percentile with ten samples beyond it)",
            all.len(),
            percentile_sorted(&all, 50.0) as f64 / 1_000.0,
            percentile_sorted(&all, p) as f64 / 1_000.0,
        ));
    }
    for class in Class::ALL {
        let mut of_class: Vec<u64> = phase
            .samples
            .iter()
            .flatten()
            .filter(|s| s.class == class)
            .map(|s| s.latency_ns)
            .collect();
        if !of_class.is_empty() {
            of_class.sort_unstable();
            notes.push(format!(
                "  {:<14} {:>8} ops, p50 {:>10.1} us, p95 {:>10.1} us",
                class.span_name(),
                of_class.len(),
                percentile_sorted(&of_class, 50.0) as f64 / 1_000.0,
                percentile_sorted(&of_class, 95.0) as f64 / 1_000.0,
            ));
        }
    }
    notes.push(format!(
        "windows: ops/s {:?} p50 us {:?} p95 us {:?}",
        phase.window_rates, phase.window_p50, phase.window_p95
    ));
}

/// Where each span name's time went, as lines for the run's notes.
fn layer_share_table(summary: &TraceSummary) -> Vec<String> {
    let op_total: u64 = summary
        .by_name
        .iter()
        .filter(|(name, _)| name.starts_with("op."))
        .map(|(_, s)| s.total_ns)
        .sum();
    let mut lines = vec![format!(
        "  {:<22} {:>9} {:>12} {:>12} {:>8}",
        "span", "count", "median us", "self ms", "share"
    )];
    for (name, s) in &summary.by_name {
        lines.push(format!(
            "  {:<22} {:>9} {:>12.1} {:>12.1} {:>7.1}%",
            name,
            s.count,
            s.median_ns as f64 / 1_000.0,
            s.self_ns as f64 / 1e6,
            100.0 * ratio(s.self_ns, op_total),
        ));
    }
    lines
}

/// crypto, storage, index, ledger and txn, replayed on inputs of this
/// workload's shape.
fn replay_lower_layers(args: &RunArgs, data: &Dataset) -> Result<Measured, String> {
    let cache_per_shard = args
        .workload
        .cache_bytes_per_shard()
        .unwrap_or_else(adapter::default_cache_bytes_per_shard);
    let mut values = replay::crypto();
    values.extend(replay::storage(
        data,
        &args.scratch.join("replay-store"),
        cache_per_shard,
    )?);
    values.extend(replay::index(data, args.seed)?);
    values.extend(replay::ledger(
        data,
        args.seed,
        &args.scratch.join("replay-ledger"),
    )?);
    values.extend(replay::txn(data, args.seed)?);
    Ok(values)
}

/// Storage, commit-path and transaction figures of the workload itself:
/// getter deltas over the traced phase, and the store after the run.
fn workload_counters(
    traced: &Phase,
    fixture: &Fixture,
    compaction: Option<&Compaction>,
    queue_depth_max: i64,
) -> Measured {
    let d = &traced.counters;
    let (compact_s, space_amp, space_amp_after) = compaction.map_or((0.0, 0.0, 0.0), |c| {
        (
            c.seconds,
            ratio(c.disk_before, c.live),
            ratio(c.disk_after, c.live),
        )
    });
    vec![
        (
            "storage.cache_hit_ratio",
            ratio(d.cache_hits, d.cache_hits + d.cache_misses),
        ),
        ("storage.fsyncs_per_commit", ratio(d.fsyncs, d.commits)),
        (
            "storage.disk_bytes_per_commit",
            ratio(d.disk_bytes, d.commits),
        ),
        ("storage.space_amp", space_amp),
        ("storage.compact_s", compact_s),
        ("storage.space_amp_after_compact", space_amp_after),
        ("storage.reopen_s", fixture.reopen_s),
        ("storage.io_retries", d.io_retries as f64),
        (
            "pipeline.group_size_mean",
            ratio(d.group_size_sum, d.group_size_count),
        ),
        ("pipeline.queue_depth_max", queue_depth_max as f64),
        (
            "txn.abort_ratio",
            ratio(d.txn_aborted, d.txn_aborted + d.txn_committed),
        ),
        ("twopc.prepares", d.twopc_prepares as f64),
        ("twopc.aborts", d.twopc_aborts as f64),
    ]
}

/// `core.*`, `server.*` and `client.*`.
///
/// A `core.*` time is the median of the workload's own spans where the
/// workload made that call under trace, and the single-client replay on the
/// workload's database otherwise; proof bytes likewise come from the traced
/// ops where they ran. `server.*` and `client.*` are measured on
/// `served_mixed` and are 0 elsewhere.
fn core_and_server(
    args: &RunArgs,
    data: &Dataset,
    fixture: &Fixture,
    summary: &TraceSummary,
    traced: &Phase,
    notes: &mut Vec<String>,
) -> Result<Measured, String> {
    fn set(values: &mut Measured, name: &str, value: f64) {
        if let Some(slot) = values.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        }
    }
    fn get(values: &Measured, name: &str) -> f64 {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    let mut server: Measured = metrics::PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with("server.") || m.name.starts_with("client."))
        .map(|m| (m.name, 0.0))
        .collect();
    if let Some(served) = &fixture.served {
        let d = &traced.counters;
        let mut remote = Remote::connect(served.addr()).map_err(|e| e.to_string())?;
        for (name, value) in replay::server(&mut remote, &fixture.store, data, args.seed)? {
            set(&mut server, name, value);
        }
        set(
            &mut server,
            "server.request_us",
            ratio(d.server_request_nanos, d.server_requests) / 1_000.0,
        );
        set(
            &mut server,
            "server.proof_cache_hit_ratio",
            ratio(
                d.proof_cache_hits,
                d.proof_cache_hits + d.proof_cache_misses,
            ),
        );
        set(&mut server, "server.busy_rejections", d.server_busy as f64);
        set(
            &mut server,
            "client.repin_ratio",
            ratio(traced.repins, traced.reads),
        );
    }

    let mut core = replay::core(&fixture.store, data, args.seed)?;
    let mut from_spans = Vec::new();
    for (name, value) in &mut core {
        if let Some(span) = name.strip_suffix("_us") {
            if summary.by_name.contains_key(span) {
                *value = summary.median_us(span);
                from_spans.push(span);
            }
        }
    }
    if fixture.served.is_none() {
        // In process a read's wire bytes are its payload plus its proof.
        let proof_bytes = |class: Class, payload: f64, per: f64| -> Option<f64> {
            let sizes: Vec<f64> = traced
                .samples
                .iter()
                .flatten()
                .filter(|s| s.class == class && s.ok)
                .map(|s| (s.wire_bytes as f64 - payload) / per)
                .collect();
            (!sizes.is_empty()).then(|| sizes.iter().sum::<f64>() / sizes.len() as f64)
        };
        let value = gen::VALUE_LEN as f64;
        let entry = workloads::loaded_entry_bytes(data) as f64;
        let multi = gen::MULTI_KEYS as f64;
        let range = f64::from(args.workload.range_len());
        for (name, measured) in [
            (
                "core.point_proof_bytes",
                proof_bytes(Class::Get, value, 1.0),
            ),
            (
                "core.multi16_proof_bytes_per_key",
                proof_bytes(Class::GetMulti, value * multi, multi),
            ),
            (
                "core.range500_proof_bytes_per_entry",
                proof_bytes(Class::Range, entry * range, range),
            ),
        ] {
            if let Some(value) = measured {
                set(&mut core, name, value);
            }
        }
    }
    notes.push(format!(
        "core.* times from spans of the traced phase: [{}]; the rest from the single-client replay",
        from_spans.join(", ")
    ));
    if fixture.served.is_some() {
        let overhead =
            get(&server, "server.get_verified_rtt_us") - get(&core, "core.get_verified_us");
        set(&mut server, "server.wire_overhead_us", overhead);
    }
    core.extend(server);
    Ok(core)
}
