#!/usr/bin/env python3
"""Benchmark runner for the fua reproduction (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --bless

With --trace 0 the workload's CLI commands run through the release `fua`
binary with --jobs 1: once at the workload's limit, checked and measured
for peak memory, then in timed rounds at a short limit until S seconds
have passed. The time metrics are medians scaled by a calibration of
the host's speed, timed in the same rounds. With --trace 1 the
in-process harness runs the traced pass and reports the per-layer
metrics. Either way the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Run from the root of a checkout. Builds go to $CARGO_TARGET_DIR (default
.bench_build); everything a run writes goes to .bench_out.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
EXPECTED = BENCH / "expected"
OUT = ROOT / ".bench_out"

# The ledger workload's quick config; also the limit at which a traced
# run times the layers its own sequence never calls.
QUICK_LIMIT = 25000
FULL_LIMIT = 150000
SMOKE_LIMIT = 2000
# The limit the timed rounds run at: short commands (a few tenths of a
# second each), so a run takes many samples of each.
TIME_LIMIT = 3000
# In each round, set-up is timed SETUP_REPS times, after one untimed
# warm-up pass in the same process.
SETUP_REPS = 5
# Rounds a run makes at least, however long they take.
MIN_ROUNDS = 3
# The nominal seconds of one calibration pass (harness/src/calibrate.rs),
# about its median on the measurement host. Time metrics are scaled to
# this speed. Never change it, nor the calibration work.
CALIBRATION_S = 0.2
# The seed selects the probe's input data set, seed mod INPUTS. Seed 0
# (the default) is input 0, the one the CLI always uses; seed 7 is held
# out: no benchmark setting was tuned on it.
DEFAULT_SEED = 0
INPUTS = 16

WORKLOADS = {"artefacts": FULL_LIMIT, "ledger": QUICK_LIMIT, "profile": FULL_LIMIT}
# `fua report` labels drift in these wall-clock measurements "info ...
# (measurement noise)"; every other finding is a change in model output.
NOISE = ("[harness-utilization]", "[harness-imbalance]")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(f"error: {msg}")
    sys.exit(2)


def commands(workload, limit, jobs, store):
    """The workload's CLI commands: (key, argv after `fua`, check)."""
    lim, j = ["--limit", str(limit)], ["--jobs", str(jobs)]
    st = ["--store", "--store-dir", str(store)]
    if workload == "artefacts":
        return [
            ("tables", ["tables", *lim], "digest"),
            ("figure4 ialu", ["figure4", "ialu", *lim, *j], "digest"),
            ("figure4 fpau", ["figure4", "fpau", *lim, *j], "digest"),
            ("headline --json", ["headline", "--json", *lim, *j], "digest"),
            ("chip", ["chip", *lim], "digest"),
        ]
    if workload == "ledger":
        return [
            ("bench-suite --store", ["bench-suite", *lim, *j, *st], "exit"),
            ("report --store", ["report", *st], "pass-line"),
            ("trends --store", ["trends", *st], "pass-line"),
        ]
    return [
        ("profile-cycles all --critical-path",
         ["profile-cycles", "all", "--critical-path", *lim, *j], "digest"),
        ("profile-energy all --compare naive lut4",
         ["profile-energy", "all", "--compare", "naive", "lut4", *lim, *j], "digest"),
        ("estimate all --verify", ["estimate", "all", "--verify", *lim, *j], "digest"),
    ]


# --------------------------------------------------------------------
# Build, host record, child processes.
# --------------------------------------------------------------------

def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "src" / "main.rs").is_file():
        fail(f"{ROOT} is not a fua checkout (no Cargo.toml or src/main.rs)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for extra in [["--bin", "fua"], ["--manifest-path", str(BENCH / "harness" / "Cargo.toml")]]:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    # Commands run in ROOT. Named relative to it, a command's argv, and
    # with it the command's heap layout and peak memory, does not depend
    # on where the checkout lies: profile-cycles peaked at 26 or 35 MiB
    # depending on the length of its absolute path.
    release = target / "release"
    if release.is_relative_to(ROOT):
        release = release.relative_to(ROOT)
    return release / "fua", release / "fua-perfbench"


def jobs_count():
    return len(os.sched_getaffinity(0))


def loadavg():
    with open("/proc/loadavg") as f:
        return f.read().split()[:3]


def host_record(jobs):
    """The host a run measured on; `jobs` is the --jobs its timed commands used."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = r.stdout.strip() or None
    digest = hashlib.sha256()
    for sub in ["Cargo.toml", "Cargo.lock", "src", "crates"]:
        paths = [ROOT / sub] if (ROOT / sub).is_file() else sorted((ROOT / sub).rglob("*"))
        for p in paths:
            if p.is_file():
                digest.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return {
        "nproc": jobs_count(),
        "cpu_model": model,
        "jobs": jobs,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "loadavg_before": loadavg(),
    }


def run_child(harness, argv, slot=""):
    """Runs one command; returns (seconds, peak RSS in MiB, exit code, stdout).

    The harness's `spawn` starts the command and measures it. Started
    from this Python process, the command's peak RSS would read at least
    this process's own (see perfbench/harness/src/spawn.rs). Commands
    that run at the same time need different `slot`s."""
    OUT.mkdir(exist_ok=True)
    report = OUT / f"child{slot}.json"
    report.unlink(missing_ok=True)
    with open(OUT / f"child{slot}.stdout", "w+b") as out, \
            open(OUT / f"child{slot}.stderr", "w+b") as err:
        rc = subprocess.run([harness, "spawn", "--report", report, "--", *argv],
                            cwd=ROOT, stdout=out, stderr=err).returncode
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if rc != 0 or not report.is_file():
        fail(f"could not run {argv[0]}: {stderr.decode()[-400:]}")
    m = load_json(report)
    if m["code"] != 0:
        log(f"{' '.join(map(str, argv))} exited {m['code']}: {stderr.decode()[-400:]}")
    return m["seconds"], m["maxrss_kib"] / 1024, m["code"], stdout


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def load_json(path):
    with open(path) as f:
        return json.load(f)


def ledger_artifact(limit):
    return EXPECTED / f"ledger-{limit}.json"


# --------------------------------------------------------------------
# The untraced pass: end-to-end metrics.
# --------------------------------------------------------------------

def seed_store(harness, fua, template, limit):
    shutil.rmtree(template, ignore_errors=True)
    for _ in range(3):
        _, _, rc, _ = run_child(harness, [fua, "store", "put", ledger_artifact(limit),
                                          "--store-dir", template])
        if rc != 0:
            fail("could not seed the run store")


def check(kind, key, rc, stdout, limit, digests):
    """Whether one command's exit code and output are as expected.

    On ledger, `bench-suite` is checked by its exit code (nonzero on an
    inexact partition). The store is seeded with the committed artifact,
    so `report --store` then diffs the new run against it."""
    if rc != 0:
        return False
    if kind == "exit":
        return True
    if kind == "digest":
        want = digests.get(str(limit), {}).get(key)
        if sha256(stdout) != want:
            log(f"{key}: stdout digest {sha256(stdout)[:12]} != expected {str(want)[:12]}")
            return False
        return True
    lines = stdout.decode().strip().splitlines()
    findings = [l for l in lines if l.startswith(("info ", "REGRESSION "))]
    model = [l for l in findings if not (l.startswith("info ") and l.split()[1] in NOISE)]
    if lines and lines[-1].startswith("PASS: ") and not model:
        return True
    log(f"{key}: findings on model output:\n" + "\n".join(model or lines[-5:]))
    return False


def untraced(workload, limit, time_limit, seconds, fua, harness, jobs, digests):
    """The end-to-end metrics, in two parts.

    The check pass runs each command once at the workload's own limit
    with --jobs 1, for its peak memory and the paper gap. Then timed
    rounds at the short `time_limit`, until `seconds` have passed: each
    round times the calibration work, the set-up of that config, and
    every command once.
    A time metric is a median over the rounds, scaled to the nominal
    host speed by CALIBRATION_S / the calibration's median."""
    store = OUT / "ledger-store"
    templates = {lim: OUT / f"ledger-seed-{lim}" for lim in {limit, time_limit}}
    if workload == "ledger":
        for lim, template in templates.items():
            seed_store(harness, fua, template, lim)
    attempted, failed = 0, 0

    def fresh_store(lim):
        if workload == "ledger":
            shutil.rmtree(store, ignore_errors=True)
            shutil.copytree(templates[lim], store)

    # Check pass. With two workers a command's peak depends on which
    # kernels the workers hold at the same time, which scheduling decides
    # (32-46 MiB for profile-cycles); run serially it repeats to within a
    # few KiB. `jobs` commands run at once, except on ledger, where each
    # reads what the last one stored.
    fresh_store(limit)

    def serial_peak(slot_cmd):
        slot, (key, argv, kind) = slot_cmd
        _, rss, rc, stdout = run_child(harness, [fua, *argv], slot)
        return key, rss, stdout, check(kind, key, rc, stdout, limit, digests)

    with ThreadPoolExecutor(1 if workload == "ledger" else jobs) as pool:
        peaks = list(pool.map(serial_peak, enumerate(commands(workload, limit, 1, store))))
    serial_rss = {key: rss for key, rss, _, _ in peaks}
    attempted += len(peaks)
    failed += sum(not ok for _, _, _, ok in peaks)
    gap = None
    for key, _, stdout, ok in peaks:
        if key == "headline --json" and ok:
            h = json.loads(stdout)
            paper = {"ialu_pct": 17, "fpau_pct": 18, "ialu_compiler_pct": 26}
            gap = statistics.fmean(abs(h[k] - v) for k, v in paper.items())

    setup_cmd = [harness, "setup", "--limit", str(time_limit), "--jobs", "1",
                 "--reps", str(SETUP_REPS)]
    cmds = commands(workload, time_limit, 1, store)
    calibration, setup, rounds = [], [], []
    start = time.perf_counter()
    while True:
        _, _, rc, out = run_child(harness, [harness, "calibrate", "--reps", "1"])
        if rc != 0:
            fail("calibration failed")
        calibration += json.loads(out)["seconds"]
        _, _, rc, out = run_child(harness, setup_cmd)
        if rc != 0:
            fail("set-up timing failed")
        setup += json.loads(out)["setup_s"]
        fresh_store(time_limit)
        times = {}
        for key, argv, kind in cmds:
            secs, _, rc, stdout = run_child(harness, [fua, *argv])
            attempted += 1
            failed += not check(kind, key, rc, stdout, time_limit, digests)
            times[key] = secs
        rounds.append(times)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            break

    # The medians of interleaved samples see the same share of the
    # host's contention, so their ratio cancels most of it.
    scale = CALIBRATION_S / statistics.median(calibration)

    def calibrated(keys):
        return scale * sum(statistics.median(r[k] for r in rounds) for k in keys)

    metrics = {
        "wall_s": calibrated([k for k, _, _ in cmds]),
        "setup_s": scale * statistics.median(setup),
        "peak_rss_mb": max(serial_rss.values()),
    }
    # Per-command figures: recorded with the run, not in BENCHMARK.json,
    # since each exists on one workload only.
    per_command = {
        "figure4_s": ["figure4 ialu", "figure4 fpau"],
        "headline_s": ["headline --json"],
        "bench_suite_s": ["bench-suite --store"],
        "profile_cycles_s": ["profile-cycles all --critical-path"],
        "estimate_s": ["estimate all --verify"],
    }
    extra = {name: calibrated(keys) for name, keys in per_command.items()
             if all(k in rounds[0] for k in keys)}
    if gap is not None:
        extra["paper_gap_pp"] = gap
    # Unscaled, for reading the host's speed during the run.
    extra["raw_wall_s"] = metrics["wall_s"] / scale
    extra["host_speed"] = scale
    record = {"rounds": rounds, "calibration_s": calibration, "setup_s": setup,
              "serial_rss_mb": serial_rss, "per_command": extra}
    return metrics, attempted, failed, record


# --------------------------------------------------------------------
# The traced pass: per-layer metrics.
# --------------------------------------------------------------------

def check_spans(path):
    """Problems with the span file: a negative time, a child outside its
    parent, or a self time that is not the span's duration less the
    length its children cover."""
    events = load_json(path)["traceEvents"]
    by_track = {}
    for e in events:
        by_track.setdefault(e["tid"], {})[e["args"]["id"]] = e
    problems = []
    slack = 1e-2  # microseconds; ts and dur are rounded floats
    for track in by_track.values():
        children = {}
        for e in track.values():
            if e["args"]["parent"] is not None:
                children.setdefault(e["args"]["parent"], []).append((e["ts"], e["ts"] + e["dur"]))
        for i, e in track.items():
            if e["args"]["self_us"] < 0 or e["dur"] < 0:
                problems.append(f"{e['name']}: negative time")
            parent = e["args"]["parent"]
            if parent is not None:
                p = track[parent]
                if e["ts"] < p["ts"] - slack or e["ts"] + e["dur"] > p["ts"] + p["dur"] + slack:
                    problems.append(f"{e['name']} lies outside its parent {p['name']}")
            covered, reach = 0.0, -math.inf
            for a, b in sorted(children.get(i, [])):
                a = max(a, reach)
                if b > a:
                    covered, reach = covered + b - a, b
            if abs(e["dur"] - covered - e["args"]["self_us"]) > slack * (1 + len(children.get(i, []))):
                problems.append(f"{e['name']}: self time {e['args']['self_us']} us does not "
                                f"match its duration less its children's")
    return problems


def traced(workload, limit, quick_limit, seed, seconds, harness, jobs, digests):
    work = OUT / f"trace-{workload}"
    _, _, rc, out = run_child(harness, [
        harness, "trace", "--workload", workload, "--limit", str(limit), "--jobs", str(jobs),
        "--input", str(seed % INPUTS), "--seconds", str(seconds), "--work-dir", work,
        "--quick-limit", str(quick_limit), "--quick-artifact", ledger_artifact(quick_limit),
    ])
    if rc != 0:
        fail("the traced pass failed")
    result = json.loads(out)
    failed = 0
    for op in result["operations"]:
        ok = op["error"] is None
        if ok and op["stdout"] is not None:
            want = digests.get(str(op["limit"]), {}).get(op["command"])
            ok = sha256(op["stdout"].encode()) == want
        if not ok:
            log(f"{op['pass']} {op['command']} at limit {op['limit']} failed: {op['error']}")
        failed += not ok
    problems = check_spans(result["spans"])
    for p in problems:
        log(f"span file: {p}")
    failed += bool(problems)
    attempted = len(result["operations"]) + result["probe_rounds"] + 1
    record = {k: v for k, v in result.items() if k != "operations"}
    record["operations"] = [{k: v for k, v in op.items() if k != "stdout"}
                            for op in result["operations"]]
    return result["metrics"], attempted, failed, record


# --------------------------------------------------------------------
# Entry points.
# --------------------------------------------------------------------

def spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json is missing")
    return load_json(path)


def result_line(names, metrics, attempted, failed):
    missing = [m for m in names if m not in metrics or not math.isfinite(metrics[m])]
    if missing:
        fail(f"metrics not measured: {', '.join(missing)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in names.items()},
    }


def run(workload, seed, seconds, trace, limit=None, quick_limit=QUICK_LIMIT,
        time_limit=TIME_LIMIT, digests=None):
    """One benchmark run; returns the result object."""
    bench = spec()
    fua, harness = build()
    jobs = jobs_count()
    limit = limit or WORKLOADS[workload]
    digests = digests or load_json(EXPECTED / "digests.json")
    host = host_record(jobs if trace else 1)
    if trace:
        metrics, attempted, failed, record = traced(
            workload, limit, quick_limit, seed, seconds, harness, jobs, digests)
        names = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        metrics, attempted, failed, record = untraced(
            workload, limit, time_limit, seconds, fua, harness, jobs, digests)
        names = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    host["loadavg_after"] = loadavg()
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record.update(workload=workload, seed=seed, trace=trace, limit=limit,
                  time_limit=None if trace else time_limit, host=host,
                  input=seed % INPUTS if trace else 0, metrics=metrics)
    with open(runs / f"{stamp}-{workload}-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump(record, f, indent=1)
    log(f"host {json.dumps(host)}")
    for name, value in record.get("per_command", {}).items():
        log(f"{name} = {value:.4f}")
    return result_line(names, metrics, attempted, failed)


def self_test():
    """Smoke run at a tiny limit: every metric prints with its unit, the
    span file nests, and a wrong expected digest and a malformed span
    file are each reported as a failed operation."""
    bench = spec()
    problems = []
    for trace, key in [(False, "end_to_end"), (True, "per_layer")]:
        units = {m["name"]: m["unit"] for m in bench[key]}
        for workload in WORKLOADS:
            r = run(workload, DEFAULT_SEED, 0, trace, SMOKE_LIMIT, SMOKE_LIMIT, SMOKE_LIMIT)
            label = f"{workload} --trace {int(trace)}"
            if not r["correct"] or r["failed"]:
                problems.append(f"{label}: {r['failed']} failed operation(s)")
            for name, unit in units.items():
                got = r["metrics"].get(name)
                if not got or got["unit"] != unit or not isinstance(got["value"], (int, float)):
                    problems.append(f"{label}: {name} missing or without unit {unit}")
    wrong = load_json(EXPECTED / "digests.json")
    wrong[str(SMOKE_LIMIT)]["chip"] = "0" * 64
    r = run("artefacts", DEFAULT_SEED, 0, False, SMOKE_LIMIT, SMOKE_LIMIT, SMOKE_LIMIT, wrong)
    # chip is one of the five artefacts commands: one operation in five
    # (each pass's chip) must fail, and no other.
    if r["failed"] != r["attempted"] // 5 or r["correct"]:
        problems.append(f"a wrong expected digest gave {r['failed']} failed operation(s) "
                        f"of {r['attempted']}, not {r['attempted'] // 5}")
    # A child that ends after its parent, whose parent claims self time
    # the child covers.
    def event(i, ts, dur, parent, own):
        return {"name": f"span {i}", "ph": "X", "ts": ts, "dur": dur, "pid": 1, "tid": 1,
                "args": {"id": i, "parent": parent, "metric": None, "self_us": own}}
    bad = OUT / "malformed-spans.json"
    bad.write_text(json.dumps({"traceEvents": [event(0, 0, 100, None, 50),
                                               event(1, 50, 100, 0, 100)]}))
    if len(check_spans(bad)) != 2:
        problems.append("the span check did not reject a child outside its parent")
    for p in problems:
        log(f"self-test: {p}")
    log("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def bless():
    """Regenerates the expected digests and ledger artifacts from the
    current build. Run only after an intended change of model output."""
    fua, harness = build()
    jobs = jobs_count()
    digests = {}
    for limit in [FULL_LIMIT, QUICK_LIMIT, TIME_LIMIT, SMOKE_LIMIT]:
        table = digests.setdefault(str(limit), {})
        for workload in ["artefacts", "profile"]:
            for key, argv, _ in commands(workload, limit, jobs, None):
                _, _, rc, stdout = run_child(harness, [fua, *argv])
                if rc != 0:
                    fail(f"{key} at limit {limit} exited {rc}")
                table[key] = sha256(stdout)
    for limit in [QUICK_LIMIT, TIME_LIMIT, SMOKE_LIMIT]:
        _, _, rc, _ = run_child(harness, [fua, "bench-suite", "--limit", str(limit),
                                          "--jobs", str(jobs), "--tag", "expected"])
        artifact = ROOT / "BENCH_expected.json"
        if rc != 0:
            fail(f"bench-suite at limit {limit} exited {rc}")
        shutil.move(artifact, ledger_artifact(limit))
    with open(EXPECTED / "digests.json", "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {EXPECTED}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--bless", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.bless:
        return bless()
    if args.workload is None:
        ap.error("--workload is required")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
