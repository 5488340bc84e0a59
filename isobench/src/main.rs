//! isobench — the repository benchmark: the paper's workflow as users run
//! it, timed end to end, with a separate traced run for per-layer numbers.
//!
//! ```text
//! cargo run --release --manifest-path isobench/Cargo.toml -- \
//!     --workload <validate-threads|plans-p256|model-queries> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

#![forbid(unsafe_code)]

mod harness;
mod plans;
mod queries;
mod reference;
mod validate_threads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{median, per_section, quantile, HostProbe, Runner, Section};

/// After one untimed set-up, set-up is repeated at least `SETUP_MIN_REPS`
/// times and until `SETUP_MIN_S` of wall time has elapsed (at most
/// `SETUP_MAX_REPS`); `setup_s` is the median wall time of a repetition.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 100_000;
const SETUP_MIN_S: f64 = 0.5;

/// Host probes before the first timed set-up.
const PROBES_BEFORE: usize = 5;

/// Median wall time of one single-thread host probe on the host the
/// benchmark was written on (2-vCPU VM, Intel Xeon). Every time metric is
/// a wall time scaled by this over the run's median probe: its time at
/// that host's speed.
const PROBE_NOMINAL_S: f64 = 0.006;

const USAGE: &str = "usage: isobench --workload <validate-threads|plans-p256|model-queries> \
    --seed <n> --seconds <s> --trace <0|1> [--smoke] [--corrupt-reference] \
    [--write-reference <path>]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ValidateThreads,
    PlansP256,
    ModelQueries,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "validate-threads" => Some(Workload::ValidateThreads),
            "plans-p256" => Some(Workload::PlansP256),
            "model-queries" => Some(Workload::ModelQueries),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ValidateThreads => "validate-threads",
            Workload::PlansP256 => "plans-p256",
            Workload::ModelQueries => "model-queries",
        }
    }

    /// Threads of the host probe: as many as the workload keeps busy.
    /// The thread runtime runs up to 32 rank threads; the other two
    /// workloads run one client thread.
    fn probe_threads(self, nproc: usize) -> usize {
        match self {
            Workload::ValidateThreads => nproc,
            Workload::PlansP256 | Workload::ModelQueries => 1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Self-test sizes: one pass, small grids, p ≤ 64.
    smoke: bool,
    /// Self-test: perturb one reference value chosen by the seed.
    corrupt_reference: bool,
    /// Run one validate-threads pass and write the observed energies here.
    write_reference: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut corrupt_reference, mut write_reference) = (false, false, None);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                });
            }
            "--smoke" => smoke = true,
            "--corrupt-reference" => corrupt_reference = true,
            "--write-reference" => write_reference = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        corrupt_reference,
        write_reference,
    })
}

/// A workload's set-up products.
enum State {
    Validate(Box<validate_threads::Setup>),
    Plans(plans::Setup),
    Queries(queries::Setup),
}

impl State {
    fn build(rn: &mut Runner, args: &Args) -> Result<Self, String> {
        Ok(match args.workload {
            Workload::ValidateThreads => {
                State::Validate(Box::new(validate_threads::setup(args.smoke)?))
            }
            Workload::PlansP256 => State::Plans(plans::setup(args.smoke)),
            Workload::ModelQueries => State::Queries(queries::setup(rn, args.seed, args.smoke)?),
        })
    }

    fn pass(&mut self, rn: &mut Runner) {
        match self {
            State::Validate(s) => validate_threads::pass(rn, s),
            State::Plans(s) => plans::pass(rn, s),
            State::Queries(s) => queries::pass(rn, s),
        }
    }
}

/// Passes over the op list while another pass as long as the last one
/// still ends within `budget_s`; at least `min_passes` of them.
fn run_passes(
    rn: &mut Runner,
    state: &mut State,
    budget_s: f64,
    min_passes: usize,
) -> Vec<Section> {
    let t0 = Instant::now();
    let mut sections: Vec<Section> = Vec::new();
    loop {
        let next_s = sections.last().map_or(0.0, |s| s.wall_s);
        if sections.len() >= min_passes && t0.elapsed().as_secs_f64() + next_s > budget_s {
            return sections;
        }
        rn.begin_section();
        state.pass(rn);
        sections.push(rn.end_section());
    }
}

fn walls(sections: &[Section]) -> Vec<f64> {
    sections.iter().map(|s| s.wall_s).collect()
}

/// The op whose latency is nearest to `q`'s quantile, for the log.
fn nearest_op<'a>(ops: &[(f64, &'a str)], q: f64) -> &'a str {
    let at = quantile(&ops.iter().map(|o| o.0).collect::<Vec<_>>(), q).unwrap_or(0.0);
    ops.iter()
        .min_by(|a, b| (a.0 - at).abs().total_cmp(&(b.0 - at).abs()))
        .map_or("none", |o| o.1)
}

/// Per kind of request (the op name's first word): count, median latency
/// and share of the summed latency, on standard error.
fn print_request_kinds(ops: &[(f64, &str)]) {
    let mut kinds: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(us, name) in ops {
        let kind = name.split_whitespace().next().unwrap_or(name);
        kinds.entry(kind).or_default().push(us);
    }
    let total: f64 = ops.iter().map(|o| o.0).sum();
    for (kind, xs) in kinds {
        eprintln!(
            "isobench: request kind {kind:<16} {:>5} ops, median {:>12.1} us, {:>5.1} % of request time",
            xs.len(),
            median(&xs),
            100.0 * xs.iter().sum::<f64>() / total
        );
    }
}

type Metric = (&'static str, &'static str, f64);

fn main() -> ExitCode {
    // Look for a git revision only in this checkout, never in a parent
    // directory.
    std::env::set_var("GIT_DIR", concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"));
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("isobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(Some(line)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("isobench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Option<String>, String> {
    let host = bench::detect_host();
    let nproc = usize::try_from(host.cores).unwrap_or(1);
    let mut rn = Runner::new(HostProbe::new(args.workload.probe_threads(nproc)));
    // One untimed set-up first, so that every timed one finds the process
    // warm: the median then does not depend on how many fit into the
    // budget.
    let mut state = State::build(&mut rn, args)?;
    rn.set_tracing(args.trace);
    for _ in 0..PROBES_BEFORE {
        rn.sample_probe();
    }

    // Traced runs keep one section per set-up, for the layers set-up calls.
    let mut setup_sections = Vec::new();
    let mut setups_s = Vec::new();
    let t_setup = Instant::now();
    while setups_s.len() < SETUP_MIN_REPS
        || (t_setup.elapsed().as_secs_f64() < SETUP_MIN_S && setups_s.len() < SETUP_MAX_REPS)
    {
        rn.refresh_probe();
        if args.trace {
            rn.begin_section();
        }
        let t0 = Instant::now();
        state = State::build(&mut rn, args)?;
        setups_s.push(t0.elapsed().as_secs_f64());
        if args.trace {
            setup_sections.push(rn.end_section());
        }
    }

    if let State::Validate(s) = &mut state {
        if args.corrupt_reference {
            let key = s
                .reference
                .corrupt(args.seed)
                .ok_or("empty reference table")?;
            eprintln!("isobench: corrupted reference value {key}");
        }
        if let Some(path) = &args.write_reference {
            state.pass(&mut rn);
            let State::Validate(s) = &state else {
                unreachable!("matched above")
            };
            std::fs::write(path, s.reference.observed_txt())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!(
                "isobench: wrote {} ({} ops failed)",
                path.display(),
                rn.failed
            );
            return Ok(None);
        }
    } else if args.write_reference.is_some() || args.corrupt_reference {
        return Err("reference options apply to validate-threads only".into());
    }

    let ceiling = harness::host_ceiling_speedup(nproc);
    let mut run_wall_s = 0.0;
    let metrics: Vec<Metric> = if args.trace {
        traced_run(&mut rn, &mut state, args, &setup_sections, ceiling)
    } else {
        let passes = run_passes(&mut rn, &mut state, args.seconds, 1);
        eprintln!("isobench: pass wall times (s): {:?}", walls(&passes));
        run_wall_s = median(&walls(&passes));
        // A request is one op; the latencies are those of every op of
        // every pass. Every time is scaled to the nominal host speed.
        let scale = PROBE_NOMINAL_S / rn.probe().median_s();
        let ops: Vec<(f64, &str)> = rn
            .request_latencies(passes.len())
            .into_iter()
            .map(|(us, name)| (scale * us, name))
            .collect();
        let requests_us: Vec<f64> = ops.iter().map(|o| o.0).collect();
        eprintln!(
            "isobench: {} requests over {} passes; p50 nearest op {:?}, p99 nearest op {:?}",
            ops.len(),
            passes.len(),
            nearest_op(&ops, 0.5),
            nearest_op(&ops, 0.99)
        );
        print_request_kinds(&ops);
        eprintln!(
            "isobench: host probe median {:.6} s over {} probes",
            rn.probe().median_s(),
            rn.probe().samples()
        );
        vec![
            ("setup_s", "s", scale * median(&setups_s)),
            ("run_s", "s", scale * run_wall_s),
            (
                "peak_rss_mb",
                "MiB",
                median(&passes.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>()),
            ),
            (
                "request_p50_us",
                "us",
                quantile(&requests_us, 0.5).unwrap_or(0.0),
            ),
            (
                "request_p99_us",
                "us",
                quantile(&requests_us, 0.99).unwrap_or(0.0),
            ),
        ]
    };
    println!(
        "# host {{\"nproc\":{},\"pool_threads\":{},\"git_rev\":{},\"ceiling_speedup\":{ceiling},\
         \"probe_median_s\":{},\"workload\":\"{}\",\"seed\":{},\"ops\":{},\"run_wall_s\":{run_wall_s}}}",
        host.cores,
        host.pool_threads,
        obs::json::quote(&host.git_rev),
        rn.probe().median_s(),
        args.workload.name(),
        args.seed,
        rn.attempted,
    );
    Ok(Some(result_line(&rn, &metrics)))
}

/// Untraced passes for half the budget, traced passes for the other half;
/// per-layer metrics from the traced passes and the traced set-ups.
fn traced_run(
    rn: &mut Runner,
    state: &mut State,
    args: &Args,
    setup_sections: &[Section],
    ceiling: f64,
) -> Vec<Metric> {
    let half = args.seconds / 2.0;
    rn.set_tracing(false);
    let untraced = run_passes(rn, state, half, 1);
    rn.set_tracing(true);
    let t0 = Instant::now();
    let mut traced = run_passes(rn, state, 0.0, 1);
    let trace_spans = rn.spans().len();
    traced.extend(run_passes(rn, state, half - t0.elapsed().as_secs_f64(), 0));

    let mut all: Vec<Section> = setup_sections.to_vec();
    all.extend(traced.iter().cloned());
    print_self_times(&all);

    let pool = match state {
        State::Queries(s) => queries::pool_speedup(s),
        _ => 0.0,
    };
    let overhead = 100.0 * (median(&walls(&traced)) / median(&walls(&untraced)) - 1.0);

    let workload = args.workload.name();
    let _ = rn.op("write perfetto trace", |rn| {
        write_trace(rn, trace_spans, workload)
    });

    let mut metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit, f)| (*name, *unit, per_section(&all, f)))
        .collect();
    metrics.extend([
        ("pool.speedup_vs_seq", "ratio", pool),
        (
            "pool.frac_of_ceiling",
            "ratio",
            if ceiling > 0.0 { pool / ceiling } else { 0.0 },
        ),
        ("host.ceiling_speedup", "ratio", ceiling),
        ("obs.tracing_overhead_pct", "%", overhead),
    ]);
    metrics
}

fn span(s: &Section, key: &str) -> Option<f64> {
    (s.calls(key) > 0).then(|| s.span(key))
}

fn count(s: &Section, key: &str) -> Option<f64> {
    s.counts.get(key).copied()
}

/// Per-call mean of `key`, scaled (1e6 for µs).
#[allow(clippy::cast_precision_loss)]
fn per_call(s: &Section, key: &str, scale: f64) -> Option<f64> {
    span(s, key).map(|t| scale * t / s.calls(key) as f64)
}

/// Span time of `key` per unit of counter `per`, scaled.
fn per_count(s: &Section, key: &str, per: &str, scale: f64) -> Option<f64> {
    let n = count(s, per).filter(|&n| n > 0.0)?;
    span(s, key).map(|t| scale * t / n)
}

type LayerFn = fn(&Section) -> Option<f64>;

/// Per-layer metrics derived from a section; each is the median over the
/// sections where the layer was called.
const PER_LAYER: &[(&str, &str, LayerFn)] = &[
    ("microbench.machine_params_s", "s", |s| {
        span(s, "microbench.machine_params")
    }),
    ("npb.seq_run_s", "s", |s| span(s, "npb.seq_run")),
    ("mps.par_run_s", "s", |s| {
        match (span(s, "mps.par_run"), span(s, "mps.par_run.ft")) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(0.0) + b.unwrap_or(0.0)),
        }
    }),
    ("mps.us_per_msg", "us", |s| {
        per_count(s, "mps.par_run.ft", "mps.messages.ft", 1e6)
    }),
    ("mps.messages", "count", |s| count(s, "mps.messages")),
    ("mps.bytes", "B", |s| count(s, "mps.bytes")),
    ("simcluster.distill_s", "s", |s| {
        span(s, "simcluster.distill")
    }),
    ("simcluster.segments", "count", |s| {
        count(s, "simcluster.segments")
    }),
    ("simcluster.energy_s", "s", |s| span(s, "simcluster.energy")),
    ("isoee.validate_s", "s", |s| span(s, "isoee.validate")),
    ("isoee.model_error_pct", "%", |s| {
        let n = count(s, "isoee.points").filter(|&n| n > 0.0)?;
        count(s, "isoee.abs_err_pct_sum").map(|sum| sum / n)
    }),
    ("powerpack.profile_s", "s", |s| span(s, "powerpack.profile")),
    ("powerpack.measure_s", "s", |s| span(s, "powerpack.measure")),
    ("plan.analyze_s", "s", |s| span(s, "plan.analyze")),
    ("plan.analyze_steps", "count", |s| {
        count(s, "plan.analyze_steps")
    }),
    ("plan.certify_s", "s", |s| span(s, "plan.certify")),
    ("isoee.cost_bounds_s", "s", |s| span(s, "isoee.cost_bounds")),
    ("isoee.cap_verdict_s", "s", |s| span(s, "isoee.cap_verdict")),
    ("simrt.run_s", "s", |s| span(s, "simrt.run")),
    ("simrt.ns_per_step", "ns", |s| {
        per_count(s, "simrt.run", "simrt.steps", 1e9)
    }),
    ("simrt.steps", "count", |s| count(s, "simrt.steps")),
    ("simrt.sends", "count", |s| count(s, "simrt.sends")),
    ("simrt.wakes", "count", |s| count(s, "simrt.wakes")),
    ("isoee.surface_pf_ns_per_cell", "ns", |s| {
        per_count(s, "isoee.surface_pf", "isoee.cells.pf", 1e9)
    }),
    ("isoee.surface_pn_ns_per_cell", "ns", |s| {
        per_count(s, "isoee.surface_pn", "isoee.cells.pn", 1e9)
    }),
    ("isoee.contour_us", "us", |s| {
        per_call(s, "isoee.contour", 1e6)
    }),
    ("isoee.best_frequency_us", "us", |s| {
        per_call(s, "isoee.best_frequency", 1e6)
    }),
    ("isoee.cells", "count", |s| {
        match (count(s, "isoee.cells.pf"), count(s, "isoee.cells.pn")) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(0.0) + b.unwrap_or(0.0)),
        }
    }),
    ("bench.op_self_s", "s", |s| {
        s.self_s.get("bench.op").copied()
    }),
];

/// Per-key span and self time (medians over the sections that call the
/// key), on standard error.
fn print_self_times(sections: &[Section]) {
    let mut keys: Vec<&'static str> = sections
        .iter()
        .flat_map(|s| s.span_s.keys().copied())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    eprintln!(
        "isobench: {:<28} {:>12} {:>12} {:>8}",
        "span", "span_s", "self_s", "calls"
    );
    for key in keys {
        let med = |f: &dyn Fn(&Section) -> f64| {
            per_section(sections, |s| (s.calls(key) > 0).then(|| f(s)))
        };
        #[allow(clippy::cast_precision_loss)]
        let calls = med(&|s| s.calls(key) as f64);
        eprintln!(
            "isobench: {key:<28} {:>12.6} {:>12.6} {calls:>8}",
            med(&|s| s.span(key)),
            med(&|s| s.self_s.get(key).copied().unwrap_or(0.0)),
        );
    }
}

/// Write the spans recorded up to `end` (the traced set-ups and the first
/// traced pass) as a Perfetto trace through `obs`, and check it with the
/// validator `trace_check` uses.
fn write_trace(rn: &Runner, end: usize, workload: &str) -> Result<(), String> {
    use obs::{Category, FieldValue, SpanRecord, TrackTrace};
    let spans = &rn.spans()[..end];
    let depth = |mut i: usize| {
        let mut d = 0;
        while let Some(p) = spans[i].parent {
            d += 1;
            i = p;
        }
        d
    };
    #[allow(clippy::cast_precision_loss)]
    let records = spans
        .iter()
        .enumerate()
        .map(|(i, s)| SpanRecord {
            name: s.label.clone(),
            cat: if s.key == "bench.op" {
                Category::Phase
            } else {
                Category::Other
            },
            track: 0,
            start_s: s.start_ns as f64 * 1e-9,
            end_s: s.end_ns as f64 * 1e-9,
            depth: depth(i),
            host_start_ns: s.start_ns,
            host_end_ns: s.end_ns,
            forced_close: false,
            fields: vec![
                ("layer", FieldValue::Str(s.key.to_string())),
                ("span_id", FieldValue::U64(i as u64)),
                (
                    "parent",
                    FieldValue::U64(s.parent.map_or(u64::MAX, |p| p as u64)),
                ),
            ],
        })
        .collect();
    let mut trace = obs::Trace::new(&format!("isobench {workload}"));
    trace.set_meta("clock", "host");
    trace.push_track(TrackTrace {
        track: 0,
        spans: records,
        instants: Vec::new(),
    });
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    let doc = obs::perfetto::render(&trace);
    std::fs::write(&path, &doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    let report =
        obs::perfetto::validate(&doc).map_err(|errs| format!("invalid trace: {errs:?}"))?;
    eprintln!(
        "isobench: wrote {} ({} spans)",
        path.display(),
        report.span_events
    );
    Ok(())
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`. A
/// non-finite metric value cannot be reported and counts as a failure.
fn result_line(rn: &Runner, metrics: &[Metric]) -> String {
    let mut failed = rn.failed;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() {
                *v
            } else {
                eprintln!("isobench: metric {name} is not finite ({v})");
                failed += 1;
                0.0
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        rn.attempted.max(1),
        body.join(", ")
    )
}
