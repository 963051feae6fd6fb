//! The measuring loop: set-up, a closed loop of ops on one client thread,
//! known-answer checks, and the report.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics. A traced
//! run (`--trace 1`) reports the per-layer metrics: per-op counter deltas
//! from a counting pass over a fixed op sequence (so they repeat exactly
//! for a seed), and span self times from timed blocks that alternate
//! untraced and traced, which also gives the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dxml_telemetry::{self as telemetry, Metric, Snapshot};

use crate::design::Designs;
use crate::host::{self, PROBE_NOMINAL_MS};
use crate::ingest::Ingest;
use crate::trace::{Tracer, ROOT};

/// One workload: a set-up phase and a stream of ops with known answers.
pub trait Workload {
    /// What an op hands to [`Workload::check`].
    type Done;
    /// (Re)builds the workload's engine state; runs before timing.
    fn setup(&mut self, tr: &Tracer) -> Result<(), String>;
    /// Op `i`, timed. The op sequence depends only on the seed and `i`.
    fn op(&mut self, i: u64, tr: &Tracer) -> Result<Self::Done, String>;
    /// Compares an op's verdicts with the generator's known answers.
    fn check(&self, done: Self::Done) -> Result<(), String>;
    /// Extra traced-only work after op `i`, outside its root span.
    fn traced_extra(&mut self, _i: u64, _tr: &Tracer) {}
    /// Length of the traced run's counting pass.
    fn counting_ops(&self) -> u64;
}

/// The workload names.
pub const WORKLOADS: [&str; 3] = ["design_cold", "recheck_warm", "ingest_stream"];

/// End-to-end metrics of an untraced run, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Layers timed by spans around their public calls; each reports
/// `<name>.ms`, self milliseconds per op.
pub const SPAN_LAYERS: [&str; 15] = [
    "schema.syntax",
    "tree.term",
    "analysis.cost",
    "core.design.target_cache",
    "core.boxes.target_cache",
    "core.design.extension_nuta",
    "core.design.verify_local",
    "core.boxes.verify_local",
    "core.design.typecheck",
    "core.boxes.typecheck",
    "core.perfect",
    "core.boxes.perfect_schema",
    "schema.stream.validate",
    "tree.sax",
    ROOT,
];

/// Engine counters reported per op of the counting pass.
pub const COUNTERS: [Metric; 11] = [
    Metric::TargetCacheBuilds,
    Metric::BoxTargetCacheBuilds,
    Metric::SubsetStates,
    Metric::SubsetTransitions,
    Metric::EquivBfsRuns,
    Metric::EquivBfsStates,
    Metric::EquivBfsTransitions,
    Metric::ResidualDfaBuilds,
    Metric::StreamEvents,
    Metric::StreamViolations,
    Metric::LimitsBudgetTrips,
];

/// Every per-layer metric of a traced run, with its unit.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = SPAN_LAYERS
        .iter()
        .map(|l| (format!("{l}.ms"), "ms"))
        .collect();
    out.push(("schema.stream.new.ms".into(), "ms"));
    out.extend(COUNTERS.iter().map(|m| (m.name().to_string(), "count")));
    out.push(("design.ext_memo_hit_ratio".into(), "ratio"));
    out.push(("cache.residual_dfa_hit_ratio".into(), "ratio"));
    out.push(("interner.symbols_interned".into(), "count"));
    out.push(("tracing.coverage_pct".into(), "%"));
    out.push(("tracing.overhead_pct".into(), "%"));
    out
}

/// An untraced run sets up at least `SETUP_MIN_REPS` times, and more
/// (up to `SETUP_MAX_REPS`) until the set-ups took `SETUP_MIN_S` seconds;
/// `setup_s` is their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 9;
const SETUP_MIN_S: f64 = 2.0;

/// How often the untraced run probes the host's speed (between ops).
const PROBE_EVERY: Duration = Duration::from_millis(50);

/// Length of one block of the traced run's alternation.
const BLOCK: Duration = Duration::from_millis(250);

/// The layer spans must cover at least this share of op wall time.
const MIN_COVERAGE: f64 = 0.95;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("bad value `{value}` for `{flag}`: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(bad)?,
                "--seconds" => args.seconds = value.parse().map_err(bad)?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "`--workload` must be one of {WORKLOADS:?}, got `{}`",
                args.workload
            ));
        }
        if args.seconds == 0 {
            return Err("`--seconds` must be at least 1".into());
        }
        Ok(args)
    }
}

/// The outcome of one run.
pub struct Report {
    /// Ops attempted in the measured window(s).
    pub attempted: u64,
    /// Ops that errored or disagreed with their known answer.
    pub failed: u64,
    /// Whether every check held (known answers, span coverage, interner).
    pub correct: bool,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The host-noise record, one JSON object.
    pub host: String,
    /// Spans of a traced run, as JSON lines.
    pub spans: String,
}

impl Report {
    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    r#""{name}":{{"value":{},"unit":"{unit}"}}"#,
                    json_num(*value)
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Runs the workload `args` names.
pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "design_cold" => drive(&mut Designs::new(args.seed, false), args),
        "recheck_warm" => drive(&mut Designs::new(args.seed, true), args),
        _ => drive(&mut Ingest::new(args.seed), args),
    }
}

/// Counts failures, printing the first few with the seed and op index.
struct Failures<'a> {
    args: &'a Args,
    count: u64,
}

impl Failures<'_> {
    fn record(&mut self, op: u64, msg: &str) {
        self.count += 1;
        if self.count <= 20 {
            eprintln!(
                "FAIL workload={} seed={} op={op}: {msg}",
                self.args.workload, self.args.seed
            );
        }
    }
}

fn percentile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e6
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Runs op `i`, checks it, and returns its latency in nanoseconds.
fn step<W: Workload>(w: &mut W, i: u64, tr: &Tracer, fails: &mut Failures) -> u64 {
    tr.set_op(i);
    let start = Instant::now();
    let done = w.op(i, tr);
    let ns = start.elapsed().as_nanos() as u64;
    if let Err(msg) = done.and_then(|d| w.check(d)) {
        fails.record(i, &msg);
    }
    ns
}

fn host_record(args: &Args, window_s: f64, cpu_s: f64, steal_s: f64, extra: &str) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        r#"{{"host":{{"workload":"{}","seed":{},"trace":{},"window_s":{},"process_cpu_s":{},"steal_s":{},"cpus":{cpus}{extra}}}}}"#,
        args.workload,
        args.seed,
        args.trace,
        json_num(window_s),
        json_num(cpu_s),
        json_num(steal_s),
    )
}

fn drive<W: Workload>(w: &mut W, args: &Args) -> Result<Report, String> {
    if args.trace {
        return drive_traced(w, args);
    }
    let tr = Tracer::default();
    // Five probes before every set-up and after the last one.
    let mut setup_probes: Vec<f64> = (0..5).map(|_| host::probe_ms()).collect();
    let mut setups: Vec<f64> = Vec::new();
    while setups.len() < SETUP_MIN_REPS
        || (setups.iter().sum::<f64>() < SETUP_MIN_S && setups.len() < SETUP_MAX_REPS)
    {
        let start = Instant::now();
        w.setup(&tr).map_err(|e| format!("set-up failed: {e}"))?;
        setups.push(start.elapsed().as_secs_f64());
        setup_probes.extend((0..5).map(|_| host::probe_ms()));
    }
    let setup_runs = format!("{setups:?}");
    let setup_raw_s = median(&mut setups);
    let setup_speed = PROBE_NOMINAL_MS / median(&mut setup_probes);

    let mut fails = Failures { args, count: 0 };
    let window = host::Window::start();
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut lat: Vec<u64> = Vec::new();
    // Ops completed in each second of the window, for the noise record.
    let mut per_second: Vec<u64> = Vec::new();
    let (mut probes, mut probe_s, mut last_probe) = (Vec::new(), 0.0, Instant::now());
    while start.elapsed() < deadline {
        lat.push(step(w, lat.len() as u64, &tr, &mut fails));
        let sec = start.elapsed().as_secs() as usize;
        if sec >= per_second.len() {
            per_second.resize(sec + 1, 0);
        }
        per_second[sec] += 1;
        if last_probe.elapsed() >= PROBE_EVERY {
            let ms = host::probe_ms();
            probes.push(ms);
            probe_s += ms / 1e3;
            last_probe = Instant::now();
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let (cpu_s, steal_s) = window.elapsed();
    let ops = lat.len() as u64;
    lat.sort_unstable();
    if probes.is_empty() {
        probes.push(host::probe_ms());
    }
    let speed = PROBE_NOMINAL_MS / median(&mut probes);

    // Raw figures as measured; the metrics scale them to the probe's
    // nominal host speed.
    let raw = [
        ops as f64 / (window_s - probe_s),
        percentile_ms(&lat, 0.5),
        percentile_ms(&lat, 0.9),
        (cpu_s - probe_s) * 1e3 / ops as f64,
    ];
    let metrics = vec![
        ("throughput_per_s".to_string(), raw[0] / speed, "1/s"),
        ("latency_p50_ms".to_string(), raw[1] * speed, "ms"),
        ("latency_p90_ms".to_string(), raw[2] * speed, "ms"),
        ("cpu_ms_per_op".to_string(), raw[3] * speed, "ms"),
        ("setup_s".to_string(), setup_raw_s * setup_speed, "s"),
        ("peak_rss_mb".to_string(), host::peak_rss_mb(), "MB"),
    ];
    let extra = format!(
        r#","ops":{ops},"failed_frac":{},"host_speed":{},"setup_host_speed":{},"probes":{},"raw":{{"throughput_per_s":{},"latency_p50_ms":{},"latency_p90_ms":{},"cpu_ms_per_op":{},"setup_s":{}}},"setup_s_runs":{setup_runs},"ops_per_second":{per_second:?}"#,
        json_num(fails.count as f64 / ops as f64),
        json_num(speed),
        json_num(setup_speed),
        probes.len(),
        json_num(raw[0]),
        json_num(raw[1]),
        json_num(raw[2]),
        json_num(raw[3]),
        json_num(setup_raw_s),
    );
    Ok(Report {
        attempted: ops,
        failed: fails.count,
        correct: fails.count == 0,
        metrics,
        host: host_record(args, window_s, cpu_s, steal_s, &extra),
        spans: String::new(),
    })
}

fn drive_traced<W: Workload>(w: &mut W, args: &Args) -> Result<Report, String> {
    let mut fails = Failures { args, count: 0 };
    let tr = Tracer::default();

    // Set-up, traced, for the set-up-only layers.
    tr.set_on(true);
    w.setup(&tr).map_err(|e| format!("set-up failed: {e}"))?;
    let setup_self = tr.self_ns();
    tr.clear();
    tr.set_on(false);

    // Counting pass: a fixed op sequence with the engine's telemetry on.
    telemetry::set_enabled(true);
    let before = Snapshot::take();
    let counted = w.counting_ops();
    for i in 0..counted {
        step(w, i, &tr, &mut fails);
    }
    let after = Snapshot::take();

    // Timed blocks alternating untraced and traced.
    let window = host::Window::start();
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut i = counted;
    let (mut plain_ns, mut plain_ops, mut traced_ns, mut traced_ops) = (0u64, 0u64, 0u64, 0u64);
    let mut traced = false;
    while start.elapsed() < deadline {
        telemetry::set_enabled(traced);
        tr.set_on(traced);
        let block = Instant::now();
        while block.elapsed() < BLOCK && start.elapsed() < deadline {
            let ns = step(w, i, &tr, &mut fails);
            if traced {
                w.traced_extra(i, &tr);
                traced_ns += ns;
                traced_ops += 1;
            } else {
                plain_ns += ns;
                plain_ops += 1;
            }
            i += 1;
        }
        traced = !traced;
    }
    tr.set_on(false);
    let end = Snapshot::take();
    telemetry::set_enabled(false);
    let window_s = start.elapsed().as_secs_f64();
    let (cpu_s, steal_s) = window.elapsed();

    let self_ns = tr.self_ns();
    let root_ns = tr.root_ns();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (name, ns) in self_ns.iter() {
        values.insert(
            format!("{name}.ms"),
            *ns as f64 / 1e6 / traced_ops.max(1) as f64,
        );
    }
    let new_ns = setup_self.get("schema.stream.new").copied().unwrap_or(0);
    values.insert("schema.stream.new.ms".into(), new_ns as f64 / 1e6);
    let delta = |m: Metric| after.counter(m) - before.counter(m);
    for m in COUNTERS {
        values.insert(m.name().into(), delta(m) as f64 / counted as f64);
    }
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    values.insert(
        "design.ext_memo_hit_ratio".into(),
        ratio(delta(Metric::ExtMemoHits), delta(Metric::ExtMemoMisses)),
    );
    values.insert(
        "cache.residual_dfa_hit_ratio".into(),
        ratio(
            delta(Metric::ResidualDfaHits),
            delta(Metric::ResidualDfaBuilds),
        ),
    );
    let interned = end.counter(Metric::SymbolsInterned) - before.counter(Metric::SymbolsInterned);
    values.insert("interner.symbols_interned".into(), interned as f64);
    let harness_ns = self_ns.get(ROOT).copied().unwrap_or(0);
    let coverage = 1.0 - harness_ns as f64 / root_ns.max(1) as f64;
    values.insert("tracing.coverage_pct".into(), coverage * 100.0);
    let mean = |ns: u64, ops: u64| ns as f64 / ops.max(1) as f64;
    let overhead = mean(traced_ns, traced_ops) / mean(plain_ns, plain_ops) - 1.0;
    values.insert("tracing.overhead_pct".into(), overhead * 100.0);
    // Layers a workload does not call report 0.
    let metrics = per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            (name, value, unit)
        })
        .collect();

    let mut correct = fails.count == 0;
    if coverage < MIN_COVERAGE {
        eprintln!(
            "FAIL workload={}: layer spans cover {:.1}% of op wall time",
            args.workload,
            coverage * 100.0
        );
        correct = false;
    }
    if interned != 0 {
        eprintln!(
            "FAIL workload={}: {interned} symbols interned after set-up",
            args.workload
        );
        correct = false;
    }
    let plain_tput = plain_ops as f64 * 1e9 / plain_ns.max(1) as f64;
    let traced_tput = traced_ops as f64 * 1e9 / traced_ns.max(1) as f64;
    let extra = format!(
        r#","counted_ops":{counted},"plain_ops":{plain_ops},"traced_ops":{traced_ops},"plain_throughput_per_s":{},"traced_throughput_per_s":{}"#,
        json_num(plain_tput),
        json_num(traced_tput)
    );
    Ok(Report {
        attempted: counted + plain_ops + traced_ops,
        failed: fails.count,
        correct,
        metrics,
        host: host_record(args, window_s, cpu_s, steal_s, &extra),
        spans: tr.to_json_lines(),
    })
}

/// Writes the spans and the host record of a run under `.bench_out/`.
pub fn write_trace(args: &Args, report: &Report) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let mut out = String::with_capacity(report.spans.len() + report.host.len() + 1);
    let _ = writeln!(out, "{}", report.host);
    out.push_str(&report.spans);
    std::fs::write(&path, out)?;
    Ok(path)
}
