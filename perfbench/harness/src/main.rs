//! The in-process half of the `fua` benchmark (see `perfbench/README.md`).
//!
//! ```text
//! fua-perfbench setup --limit N --jobs J --reps R
//! fua-perfbench trace --workload W --limit N --jobs J --input I --seconds S
//!                     --work-dir DIR --quick-limit Q --quick-artifact FILE
//! fua-perfbench calibrate --reps R
//! fua-perfbench spawn --report FILE -- PROGRAM ARGS...
//! ```
//!
//! `setup` times the set-up every sweep pays (`WorkloadArena::build` plus
//! `profile_suite_jobs`) `R` times after one untimed warm-up pass,
//! untraced. `trace` runs the traced
//! pass of one workload: a warm-up pass, then its command sequence with
//! spans around every public call between two untraced twins of the same
//! calls, reference calls at the quick limit `Q` (the ledger workload's)
//! for the layers the sequence never reaches, then ablation-probe rounds
//! until `S` seconds have passed. `FILE` is the committed `bench-suite`
//! artifact at `Q`, which seeds the run stores. Both commands print one
//! JSON object on stdout; `trace` also writes the spans to
//! `DIR/spans.json` for Perfetto. `calibrate` times `R` passes of a fixed
//! amount of work that calls no `fua` code, to read the host's speed
//! (see [`calibrate`]). `spawn` runs one command with this process's
//! stdio and writes its wall time, exit code and peak resident set to
//! `FILE` (see [`spawn`]).

mod calibrate;
mod probe;
mod sequence;
mod spans;
mod spawn;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use fua::core::{profile_suite_jobs, ExperimentConfig};
use fua::exec::{ExecReport, Jobs};
use fua::report::{BenchReport, DEFAULT_WINDOW_CYCLES};
use fua::store::Store;
use fua::trace::Json;
use fua::workloads::WorkloadArena;

use sequence::{Ctx, Mirror};
use spans::Tracer;

/// Parsed `--key value` options.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(rest: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = rest.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{key}`"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("--{key} must be a number"))
    }

    fn jobs(&self) -> Result<Jobs, String> {
        Jobs::new(self.num("jobs")?).ok_or_else(|| "--jobs must be at least 1".to_string())
    }
}

fn config(limit: u64) -> ExperimentConfig {
    ExperimentConfig {
        inst_limit: limit,
        ..ExperimentConfig::full()
    }
}

fn setup_cmd(args: &Args) -> Result<Json, String> {
    let cfg = config(args.num("limit")?);
    let jobs = args.jobs()?;
    let reps: usize = args.num("reps")?;
    let pass = || {
        let arena = WorkloadArena::build(cfg.scale);
        profile_suite_jobs(&cfg, &arena, jobs).0
    };
    // The warm-up pass takes the process's one-off costs (first-touch
    // page faults, allocator growth) and is not timed.
    let first_table = pass().table1();
    let mut seconds = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        let profile = pass();
        seconds.push(Json::Float(start.elapsed().as_secs_f64()));
        if profile.table1() != first_table {
            return Err("two set-up passes produced different profiles".into());
        }
    }
    Ok(Json::obj([("setup_s", Json::Arr(seconds))]))
}

/// `calibrate --reps R`: R timed passes of the fixed calibration work.
fn calibrate_cmd(args: &Args) -> Result<Json, String> {
    let reps: usize = args.num("reps")?;
    let mut seconds = Vec::new();
    for _ in 0..reps {
        let (s, sum) = calibrate::run();
        if sum != calibrate::CHECKSUM {
            return Err(format!(
                "calibration checksum {sum:#x} is not {:#x}",
                calibrate::CHECKSUM
            ));
        }
        seconds.push(Json::Float(s));
    }
    Ok(Json::obj([("seconds", Json::Arr(seconds))]))
}

/// A freshly seeded run store: the committed artifact stored three
/// times, the short history `report --store` and `trends` read.
fn seed_store(dir: &Path, expected_text: &str) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    let store = Store::open(dir).map_err(|e| e.to_string())?;
    for _ in 0..3 {
        store
            .put(expected_text, Path::new("expected"))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn load_expected(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    text.parse::<BenchReport>()
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(text)
}

/// One pass over a list of mirrors, each inside a command span.
fn run_mirrors(t: &mut Tracer, ctx: &mut Ctx, mirrors: &[Mirror], pass: &str, ops: &mut Vec<Json>) {
    for (command, mirror) in mirrors {
        let outcome = t.span(format!("fua {command}"), None, |t| mirror(t, ctx));
        ops.push(Json::obj([
            ("pass", Json::Str(pass.into())),
            ("command", Json::Str(command.to_string())),
            ("limit", Json::UInt(ctx.cfg.inst_limit)),
            ("stdout", outcome.stdout.map_or(Json::Null, Json::Str)),
            ("error", outcome.error.map_or(Json::Null, Json::Str)),
        ]));
    }
}

/// The mirrors that reach each sequence-only layer, for workloads whose
/// own sequence does not.
fn reference_mirrors(missing: &dyn Fn(&str) -> bool) -> Vec<Mirror> {
    let mut v: Vec<Mirror> = Vec::new();
    if missing("core.figure4_ialu_s") {
        v.extend([sequence::FIGURE4_IALU, sequence::FIGURE4_FPAU]);
    }
    if missing("report.bench_suite_s") {
        v.extend(sequence::LEDGER);
    }
    if missing("attr.profile_cycles_s") {
        v.push(sequence::PROFILE_CYCLES);
    }
    if missing("attr.profile_energy_s") {
        v.push(sequence::PROFILE_ENERGY);
    }
    if missing("attr.check_s") {
        v.push(sequence::ESTIMATE_VERIFY);
    }
    v
}

/// Median of a non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn trace_cmd(args: &Args) -> Result<Json, String> {
    let workload = args.str("workload")?;
    let mirrors =
        sequence::commands(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let limit: u64 = args.num("limit")?;
    let jobs = args.jobs()?;
    let input: u32 = args.num("input")?;
    let seconds: f64 = args.num("seconds")?;
    let work = PathBuf::from(args.str("work-dir")?);
    let quick_limit: u64 = args.num("quick-limit")?;
    let expected_text = load_expected(args.str("quick-artifact")?)?;
    if workload == "ledger" && limit != quick_limit {
        return Err("the ledger workload runs at the quick limit".into());
    }
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let started = Instant::now();
    let mut ops = Vec::new();

    // A warm-up pass takes the process's one-off costs; then the traced
    // pass runs between two untraced twins, so drift in host speed
    // cancels to first order. Every pass makes the same calls in the
    // same order, each against a freshly seeded store.
    let mut walls = Vec::new();
    let mut traced = Tracer::new(true);
    let mut traced_ctx = None;
    for (pass, enabled) in [
        ("warm-up", false),
        ("untraced", false),
        ("traced", true),
        ("untraced", false),
    ] {
        let store_dir = work.join(format!("store-{pass}"));
        seed_store(&store_dir, &expected_text)?;
        let mut t = Tracer::new(enabled);
        let mut ctx = Ctx {
            cfg: config(limit),
            jobs,
            exec: ExecReport::default(),
            figure4_cells: 0,
            store_dir: &store_dir,
        };
        let start = Instant::now();
        t.span(format!("workload {workload}"), None, |t| {
            t.span("set-up", None, |t| sequence::setup(t, &mut ctx, jobs));
            run_mirrors(t, &mut ctx, &mirrors, pass, &mut ops);
        });
        walls.push(start.elapsed().as_secs_f64());
        if enabled {
            traced = t;
            traced_ctx = Some((ctx.exec, ctx.figure4_cells));
        }
    }
    let (exec, mut figure4_cells) = traced_ctx.expect("the traced pass ran");
    let untraced_s = (walls[1] + walls[3]) / 2.0;
    let overhead_pct = 100.0 * (walls[2] - untraced_s) / untraced_s;

    // Layers the sequence never calls are timed once at the quick limit,
    // on their own track, so every row reads on every workload.
    let mut reference = Tracer::new(true);
    let missing = |m: &str| !traced.has_metric(m);
    let extra = reference_mirrors(&missing);
    if !extra.is_empty() {
        let store_dir = work.join("store-reference");
        seed_store(&store_dir, &expected_text)?;
        let mut ctx = Ctx {
            cfg: config(quick_limit),
            jobs,
            exec: ExecReport::default(),
            figure4_cells: 0,
            store_dir: &store_dir,
        };
        reference.span("reference calls", None, |t| {
            run_mirrors(t, &mut ctx, &extra, "reference", &mut ops);
        });
        if figure4_cells == 0 {
            figure4_cells = ctx.figure4_cells;
        }
    }
    let mut metrics: BTreeMap<&str, f64> = traced.metric_seconds();
    for (m, v) in reference.metric_seconds() {
        if missing(m) {
            metrics.insert(m, v);
        }
    }

    // Ablation-probe rounds on the seed's input data set.
    let workloads = fua::workloads::all_with_input(1, input);
    let machine = config(limit).machine;
    let kernels = probe::prepare(&workloads, limit)?;
    let want = probe::reference(&kernels, &machine, limit)?;
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut rounds = 0;
    while rounds < 3 || started.elapsed().as_secs_f64() < seconds {
        let round = probe::round(&kernels, &want, &machine, limit, DEFAULT_WINDOW_CYCLES)?;
        for (m, v) in probe::rows(&round) {
            samples.entry(m).or_default().push(v);
        }
        rounds += 1;
    }
    for (m, xs) in samples {
        metrics.insert(m, median(xs));
    }

    let figure4_s = metrics["core.figure4_ialu_s"] + metrics["core.figure4_fpau_s"];
    metrics.insert(
        "core.ns_per_cell",
        figure4_s * 1e9 / figure4_cells.max(1) as f64,
    );
    metrics.insert("exec.busy_fraction", exec.busy_fraction());
    metrics.insert("exec.imbalance", exec.imbalance());
    metrics.insert("exec.cells", exec.cells() as f64);
    metrics.insert("harness.trace_overhead_pct", overhead_pct);

    let spans_path = work.join("spans.json");
    let mut events = traced.chrome_events(1);
    events.extend(reference.chrome_events(2));
    let doc = Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ]);
    std::fs::write(&spans_path, doc.compact())
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;

    Ok(Json::obj([
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Float(v)))
                    .collect(),
            ),
        ),
        ("operations", Json::Arr(ops)),
        ("probe_rounds", Json::UInt(rounds)),
        (
            "walls_s",
            Json::Arr(walls.into_iter().map(Json::Float).collect()),
        ),
        ("spans", Json::Str(spans_path.display().to_string())),
    ]))
}

/// `spawn --report FILE -- PROGRAM ARGS...`: stdout belongs to the
/// command, so the measurement goes to `FILE`.
fn spawn_cmd(rest: &[String]) -> Result<(), String> {
    let split = rest
        .iter()
        .position(|a| a == "--")
        .ok_or("spawn needs `-- PROGRAM ARGS...`")?;
    let args = Args::parse(&rest[..split])?;
    let report = args.str("report")?;
    let measured = spawn::run(&rest[split + 1..])?;
    std::fs::write(report, measured.compact()).map_err(|e| format!("writing {report}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) if cmd == "spawn" => spawn_cmd(rest).map(|()| None),
        Some((cmd, rest)) => Args::parse(rest).and_then(|args| match cmd.as_str() {
            "setup" => setup_cmd(&args).map(Some),
            "trace" => trace_cmd(&args).map(Some),
            "calibrate" => calibrate_cmd(&args).map(Some),
            other => Err(format!(
                "unknown command `{other}` (expected setup, trace, calibrate or spawn)"
            )),
        }),
        None => Err("usage: fua-perfbench <setup|trace|calibrate|spawn> [--key value ...]".into()),
    };
    match result {
        Ok(json) => {
            if let Some(json) = json {
                println!("{}", json.compact());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fua-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
