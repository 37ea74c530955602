//! In-process mirrors of the CLI commands each workload runs, built from
//! the same public calls the `fua` binary makes, each call wrapped in a
//! span whose metric is named after the call's crate.
//!
//! Every mirror is one operation. It fails when the condition that makes
//! the CLI exit nonzero holds, or when its check fails; artefact mirrors
//! also return the exact text the CLI prints, so `run.py` can hash it
//! against the CLI's expected stdout digest.

use std::path::Path;

use fua::attr::{attribute_suite, check_suite, profile_cycles_suite, Scheme};
use fua::core::{
    chip_estimate, figure4_with_profile_jobs, headline_from, profile_suite_jobs, ExperimentConfig,
    Figure4, SuiteProfile, ToJson, Unit,
};
use fua::exec::{ExecReport, Jobs};
use fua::report::{
    bench_suite_jobs, compare, trends, BenchReport, Finding, Severity, Tolerance,
    DEFAULT_WINDOW_CYCLES,
};
use fua::store::{Store, StoreKey};
use fua::trace::Json;
use fua::workloads::{Workload, WorkloadArena};

use crate::spans::Tracer;

/// The result of one command mirror.
pub struct Outcome {
    /// What the CLI would print on stdout, where the mirror reproduces
    /// it byte for byte.
    pub stdout: Option<String>,
    /// Why the operation failed, if it did.
    pub error: Option<String>,
}

/// Shared state of one workload run.
pub struct Ctx<'a> {
    pub cfg: ExperimentConfig,
    pub jobs: Jobs,
    /// Every sweep's executor telemetry, merged.
    pub exec: ExecReport,
    /// Cells of the Figure-4 sweeps, the base of `core.ns_per_cell`.
    pub figure4_cells: u64,
    /// The run store the ledger mirrors write to; seeded with copies of
    /// the committed artifact, so `report --store` diffs the new run
    /// against it.
    pub store_dir: &'a Path,
}

fn ok(stdout: Option<String>) -> Outcome {
    Outcome {
        stdout,
        error: None,
    }
}

fn failed(error: String) -> Outcome {
    Outcome {
        stdout: None,
        error: Some(error),
    }
}

/// Findings on model output: everything except the notes `compare`
/// labels as wall-clock measurement noise.
fn model_findings(findings: &[Finding]) -> usize {
    findings
        .iter()
        .filter(|f| {
            !(f.severity == Severity::Info
                && matches!(f.category, "harness-utilization" | "harness-imbalance"))
        })
        .count()
}

/// `WorkloadArena::build` plus `profile_suite_jobs`: the set-up every
/// sweep pays before its first cell.
pub fn setup(t: &mut Tracer, ctx: &mut Ctx, jobs: Jobs) -> (WorkloadArena, SuiteProfile) {
    let arena = t.span(
        "workloads::WorkloadArena::build",
        Some("workloads.build_s"),
        |_| WorkloadArena::build(ctx.cfg.scale),
    );
    let (profile, report) = t.span("core::profile_suite_jobs", Some("core.profile_s"), |_| {
        profile_suite_jobs(&ctx.cfg, &arena, jobs)
    });
    ctx.exec.merge(&report);
    (arena, profile)
}

fn figure4(
    t: &mut Tracer,
    ctx: &mut Ctx,
    unit: Unit,
    arena: &WorkloadArena,
    profile: &SuiteProfile,
) -> Figure4 {
    let (name, metric) = match unit {
        Unit::Ialu => (
            "core::figure4_with_profile_jobs(IALU)",
            "core.figure4_ialu_s",
        ),
        Unit::Fpau => (
            "core::figure4_with_profile_jobs(FPAU)",
            "core.figure4_fpau_s",
        ),
    };
    let (fig, report) = t.span(name, Some(metric), |_| {
        figure4_with_profile_jobs(unit, &ctx.cfg, arena, profile, ctx.jobs)
    });
    ctx.figure4_cells += report.cells();
    ctx.exec.merge(&report);
    fig
}

/// `fua tables`: the serial profiling pass and Tables 1–3.
pub fn tables(t: &mut Tracer, ctx: &mut Ctx) -> Outcome {
    let (_, profile) = setup(t, ctx, Jobs::serial());
    let text = format!(
        "{}\n{}\n{}\n",
        profile.table1(),
        profile.table2(),
        profile.table3()
    );
    ok(Some(text))
}

/// `fua figure4 <unit>`.
pub fn figure4_cmd(t: &mut Tracer, ctx: &mut Ctx, unit: Unit) -> Outcome {
    let jobs = ctx.jobs;
    let (arena, profile) = setup(t, ctx, jobs);
    let fig = figure4(t, ctx, unit, &arena, &profile);
    ok(Some(format!("{}\n", fig.render())))
}

/// `fua headline --json`.
pub fn headline(t: &mut Tracer, ctx: &mut Ctx) -> Outcome {
    let jobs = ctx.jobs;
    let (arena, profile) = setup(t, ctx, jobs);
    let a = figure4(t, ctx, Unit::Ialu, &arena, &profile);
    let b = figure4(t, ctx, Unit::Fpau, &arena, &profile);
    let h = headline_from(&a, &b);
    ok(Some(format!("{}\n", h.to_json().pretty())))
}

/// `fua chip`.
pub fn chip(t: &mut Tracer, ctx: &mut Ctx) -> Outcome {
    let est = t.span("core::chip_estimate", None, |_| chip_estimate(&ctx.cfg));
    ok(Some(format!("{}\n", est.render())))
}

/// `fua bench-suite --store`: measure, render, append to the store. Like
/// the CLI, it fails only on an inexact partition; `report --store`
/// then diffs the stored run against the committed artifact.
pub fn bench_suite(t: &mut Tracer, ctx: &mut Ctx) -> Outcome {
    let report = t.span(
        "report::bench_suite_jobs",
        Some("report.bench_suite_s"),
        |_| bench_suite_jobs("local", &ctx.cfg, DEFAULT_WINDOW_CYCLES, ctx.jobs),
    );
    if let Some(p) = &report.parallel {
        ctx.exec.merge(&ExecReport {
            jobs: p.jobs as usize,
            wall_nanos: p.wall_nanos,
            workers: p
                .workers
                .iter()
                .map(|w| fua::exec::WorkerStat {
                    cells: w.cells,
                    nanos: w.nanos,
                })
                .collect(),
        });
    }
    let rendered = t.span(
        "report::BenchReport::to_json",
        Some("report.render_s"),
        |_| {
            let mut text = report.to_json().pretty();
            text.push('\n');
            text
        },
    );
    let put = t.span("store::Store::put", Some("store.put_s"), |_| {
        Store::open(ctx.store_dir)?.put(&rendered, Path::new("bench-suite"))
    });
    if let Err(e) = put {
        return failed(e.to_string());
    }
    if !report.telemetry.exact
        || !report.attribution.as_ref().is_some_and(|a| a.exact)
        || !report.stalls.as_ref().is_some_and(|s| s.exact)
    {
        return failed("a bench-suite partition was not exact".into());
    }
    ok(None)
}

/// The newest configuration's stored runs, parsed in sequence order.
fn history(t: &mut Tracer, dir: &Path) -> Result<Vec<(String, BenchReport)>, String> {
    let texts = t.span("store::Store::read", Some("store.read_s"), |_| {
        let store = Store::open(dir).map_err(|e| e.to_string())?;
        let entries = store.entries().map_err(|e| e.to_string())?;
        let newest = entries.last().ok_or("the run store is empty")?;
        let key = parse_key(&newest.key).ok_or("malformed store key")?;
        store
            .history(&key)
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(|e| {
                let text = store.read(&e).map_err(|e| e.to_string())?;
                Ok((format!("#{} {}", e.seq, e.tag), text))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    t.span(
        "report::BenchReport::from_json",
        Some("report.parse_s"),
        |_| {
            texts
                .into_iter()
                .map(|(label, text)| {
                    let json = Json::parse(&text).map_err(|e| e.to_string())?;
                    let report = BenchReport::from_json(&json).map_err(|e| e.to_string())?;
                    Ok((label, report))
                })
                .collect()
        },
    )
}

fn parse_key(hex: &str) -> Option<StoreKey> {
    let hi = u64::from_str_radix(hex.get(..16)?, 16).ok()?;
    let lo = u64::from_str_radix(hex.get(16..32)?, 16).ok()?;
    Some(StoreKey([hi, lo]))
}

/// `fua report --store`: diff the two newest stored runs.
pub fn report_store(t: &mut Tracer, ctx: &mut Ctx) -> Outcome {
    let mut runs = match history(t, ctx.store_dir) {
        Ok(runs) if runs.len() >= 2 => runs,
        Ok(runs) => return failed(format!("{} stored run(s), need 2", runs.len())),
        Err(e) => return failed(e),
    };
    let (_, current) = runs.pop().expect("len checked above");
    let (_, baseline) = runs.pop().expect("len checked above");
    let cmp = t.span("report::compare", Some("report.compare_s"), |_| {
        compare(&baseline, &current, &Tolerance::default())
    });
    match model_findings(&cmp.findings) {
        0 => ok(None),
        n => failed(format!("{n} finding(s) between the two newest runs")),
    }
}

/// `fua trends --store`: trajectories over the stored history.
pub fn trends_cmd(t: &mut Tracer, ctx: &mut Ctx) -> Outcome {
    let points = match history(t, ctx.store_dir) {
        Ok(points) => points,
        Err(e) => return failed(e),
    };
    let trend = t.span("report::trends", Some("report.trends_s"), |_| {
        trends(&points, &Tolerance::default())
    });
    match trend {
        Ok(tr) => match model_findings(&tr.findings) {
            0 => ok(None),
            n => failed(format!("{n} finding(s) on the newest run")),
        },
        Err(e) => failed(e.to_string()),
    }
}

fn suite(t: &mut Tracer, scale: u32) -> Vec<Workload> {
    t.span("workloads::all", Some("workloads.build_s"), |_| {
        fua::workloads::all(scale)
    })
}

/// `fua profile-cycles all --critical-path`: every issue slot must be
/// accounted.
pub fn profile_cycles(t: &mut Tracer, ctx: &mut Ctx) -> Outcome {
    let ws = suite(t, ctx.cfg.scale);
    let runs = t.span(
        "attr::profile_cycles_suite",
        Some("attr.profile_cycles_s"),
        |_| profile_cycles_suite(&ws, Scheme::Lut4, ctx.cfg.inst_limit, ctx.jobs),
    );
    match runs.iter().find(|r| !r.exact()) {
        Some(r) => failed(format!("{}: inexact partition", r.cycles.workload)),
        None => ok(None),
    }
}

/// `fua profile-energy all --compare naive lut4`: both attributions
/// must reassemble their ledgers.
pub fn profile_energy(t: &mut Tracer, ctx: &mut Ctx) -> Outcome {
    let ws = suite(t, ctx.cfg.scale);
    for scheme in [Scheme::Naive, Scheme::Lut4] {
        let runs = t.span(
            format!("attr::attribute_suite({})", scheme.name()),
            Some("attr.profile_energy_s"),
            |_| attribute_suite(&ws, scheme, ctx.cfg.inst_limit, ctx.jobs),
        );
        if let Some(r) = runs.iter().find(|r| !r.exact()) {
            return failed(format!("{}: inexact attribution", r.attribution.workload));
        }
    }
    ok(None)
}

/// `fua estimate all --verify`: no static bound may be violated.
pub fn estimate_verify(t: &mut Tracer, ctx: &mut Ctx) -> Outcome {
    let ws = suite(t, ctx.cfg.scale);
    let mut violations = 0;
    for scheme in Scheme::ALL {
        let checks = t.span(
            format!("attr::check_suite({})", scheme.name()),
            Some("attr.check_s"),
            |_| check_suite(&ws, scheme, ctx.cfg.inst_limit, ctx.jobs),
        );
        violations += checks.iter().map(|c| c.violations.len()).sum::<usize>();
    }
    match violations {
        0 => ok(None),
        n => failed(format!("{n} static bound(s) violated")),
    }
}

/// A command mirror: the command as the CLI spells it (without
/// `--limit`/`--jobs`) and the function that mirrors it.
pub type Mirror = (&'static str, fn(&mut Tracer, &mut Ctx) -> Outcome);

pub const FIGURE4_IALU: Mirror = ("figure4 ialu", |t, c| figure4_cmd(t, c, Unit::Ialu));
pub const FIGURE4_FPAU: Mirror = ("figure4 fpau", |t, c| figure4_cmd(t, c, Unit::Fpau));
pub const LEDGER: [Mirror; 3] = [
    ("bench-suite --store", bench_suite),
    ("report --store", report_store),
    ("trends --store", trends_cmd),
];
pub const PROFILE_CYCLES: Mirror = ("profile-cycles all --critical-path", profile_cycles);
pub const PROFILE_ENERGY: Mirror = ("profile-energy all --compare naive lut4", profile_energy);
pub const ESTIMATE_VERIFY: Mirror = ("estimate all --verify", estimate_verify);

/// The mirrors of one workload's command sequence.
pub fn commands(workload: &str) -> Option<Vec<Mirror>> {
    Some(match workload {
        "artefacts" => vec![
            ("tables", tables),
            FIGURE4_IALU,
            FIGURE4_FPAU,
            ("headline --json", headline),
            ("chip", chip),
        ],
        "ledger" => LEDGER.to_vec(),
        "profile" => vec![PROFILE_CYCLES, PROFILE_ENERGY, ESTIMATE_VERIFY],
        _ => return None,
    })
}
