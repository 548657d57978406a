#!/usr/bin/env python3
"""Campaign-level benchmark for pathfuzz: build, prepare, measure, check.

Usage, from the root of a checkout:

    python3 campaignbench/run.py --workload path-native --seed 1 \
        --seconds 20 --trace 0

Stages the benchmark's own dune project (campaignbench/dune-project next
to a copy of the checkout's lib/), builds campaignbench/main.ml in it
from source, compiles the workload's native units into an emit cache
private to that build,
times the cold set-up in several fresh processes, then runs the workload
for --seconds in one more process and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end figures; with --trace 1 they are the per-layer
figures, and a per-layer table is printed above the JSON line.

Everything the benchmark writes stays under .bench_build/ and
.bench_cache/ in the checkout. See RATIONALE.md for the workloads.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("path-native", "pathafl-shards", "paper-matrix")
SETUP_PROCESSES = 7
BUILD_TIMEOUT_S = 840
PREP_TIMEOUT_S = 300
STEP_TIMEOUT_S = 170

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, ".bench_build", "src")
OUT = os.path.join(ROOT, ".bench_build", "out")
CACHE = os.path.join(ROOT, ".bench_cache")
EXE = os.path.join(OUT, "campaignbench", "campaignbench", "main.exe")

# (layer, metric, the end-to-end metric and workload it should move)
LAYERS = [
    ("minic", "minic.program_s", "setup_s on paper-matrix"),
    ("pathcov", "pathcov.bl_plans_s", "setup_s on paper-matrix, path-native"),
    ("pathcov", "pathcov.classify_ns.p50", "execs_per_s on path-native"),
    ("pathcov", "pathcov.merge_ns.p50", "execs_per_s on path-native"),
    ("pathcov", "pathcov.sorted_indices_ns.p50", "execs_per_s on pathafl-shards"),
    ("vm", "vm.prepare_s", "setup_s on all"),
    ("vm", "vm.artifact_load_s", "setup_s on all"),
    ("vm", "vm.exec_ns.p50", "execs_per_s on path-native"),
    ("vm", "vm.exec_ns.tail", "execs_per_s on path-native"),
    ("vm", "vm.blocks_per_exec", "failures (count)"),
    ("vm", "vm.emit_fallbacks", "failures (count)"),
    ("vm", "vm.emit_cache_misses", "failures (count)"),
    ("vm", "vm.emit_cold_compile_s", "nothing timed (compile vs run trade)"),
    ("fuzz.Mutator", "mutator.havoc_ns.p50", "execs_per_s on path-native"),
    ("fuzz.Campaign", "campaign.vm_s", "wall_s on path-native, pathafl-shards"),
    ("fuzz.Campaign", "campaign.mut_s", "wall_s on path-native, pathafl-shards"),
    ("fuzz.Campaign", "campaign.other_s", "wall_s (residual: wall - named layers)"),
    ("fuzz.Campaign", "campaign.minor_words_per_exec", "execs_per_s, peak_rss_mb"),
    ("fuzz.Campaign", "campaign.major_gcs", "execs_per_s, peak_rss_mb"),
    ("fuzz.Corpus", "corpus.retained", "counts"),
    ("fuzz.Corpus", "corpus.retain_ratio", "counts"),
    ("fuzz.Corpus", "corpus.add_ns.p50", "execs_per_s, peak_rss_mb on pathafl-shards"),
    ("fuzz.Corpus", "corpus.recompute_favored_ms.p50", "execs_per_s on pathafl-shards"),
    ("fuzz.Triage", "triage.crashes", "wall_s"),
    ("fuzz.Triage", "triage.s", "wall_s"),
    ("fuzz.Shard", "shard.epochs", "counts"),
    ("fuzz.Shard", "shard.items", "counts"),
    ("fuzz.Shard", "shard.dup_ratio", "wasted work"),
    ("fuzz.Shard", "shard0.busy_s", "wall_s, cpu_s on pathafl-shards"),
    ("fuzz.Shard", "shard1.busy_s", "wall_s, cpu_s on pathafl-shards"),
    ("fuzz.Shard", "shard0.wait_s", "wall_s, cpu_s on pathafl-shards"),
    ("fuzz.Shard", "shard1.wait_s", "wall_s, cpu_s on pathafl-shards"),
    ("fuzz.Shard", "shard.merge_s", "wall_s on pathafl-shards"),
    ("fuzz.Shard", "shard.parallel_eff", "wall_s, cpu_s on pathafl-shards"),
    ("fuzz.Checkpoint", "checkpoint.writes", "counts"),
    ("fuzz.Checkpoint", "checkpoint.bytes", "counts"),
    ("fuzz.Checkpoint", "checkpoint.write_s", "wall_s, peak_rss_mb on pathafl-shards"),
    ("fuzz.Checkpoint", "checkpoint.read_s", "wall_s, peak_rss_mb on pathafl-shards"),
    ("fuzz.Checkpoint", "checkpoint.to_string_ms.p50", "wall_s on pathafl-shards"),
    ("fuzz.Checkpoint", "checkpoint.of_string_ms.p50", "wall_s on pathafl-shards"),
    ("experiments", "runner.run_s", "wall_s on paper-matrix"),
    ("experiments", "runner.trial_wall_ms.p50", "wall_s on paper-matrix"),
    ("experiments", "runner.trial_wall_ms.tail", "wall_s on paper-matrix"),
    ("fuzz.Measure", "measure.edge_union_s", "nothing timed (edges_covered check)"),
    ("experiments", "tables.render_s", "wall_s on paper-matrix"),
    ("obs", "obs.traced_wall_s", "reported"),
    ("obs", "obs.trace_overhead_pct", "reported"),
]


def log(msg):
    print("campaignbench: " + msg, file=sys.stderr, flush=True)


def environment():
    """Child environment: every temp and cache path inside the checkout."""
    env = dict(os.environ)
    tmp = os.path.join(CACHE, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        TMPDIR=tmp,
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=os.path.join(CACHE, "xdg"),
    )
    env.pop("PATHFUZZ_EMIT_FAIL", None)
    env.pop("PATHFUZZ_EMIT_INC", None)
    return env


def stage():
    """Lay out the benchmark's dune project under .bench_build/src: its
    dune-project and dune-workspace at the root, a copy of the checkout's
    lib/ (the code under test) and the benchmark sources."""
    shutil.rmtree(SRC, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "lib"), os.path.join(SRC, "lib"))
    os.makedirs(os.path.join(SRC, "campaignbench"))
    for name in ("dune-project", "dune-workspace"):
        shutil.copy2(os.path.join(HERE, name), SRC)
    for name in ("dune", "main.ml"):
        shutil.copy2(os.path.join(HERE, name), os.path.join(SRC, "campaignbench"))


def emit_cache():
    """The emit cache of this build. Its name carries the executable's
    digest: a cached native unit is keyed on the IR and the emitter version,
    not on the host, so two builds must never share one."""
    with open(EXE, "rb") as f:
        digest = hashlib.md5(f.read()).hexdigest()
    return os.path.join(CACHE, "emit-" + digest)


def spawn(cmd, env, timeout):
    """Run a child to completion; returns (exit code, stdout, max RSS in KB).
    On timeout the child is killed and waited for."""
    out_path = os.path.join(CACHE, "child.out")
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(cmd, stdout=out, env=env, cwd=ROOT)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise TimeoutError(" ".join(cmd))
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    return proc.returncode, text, usage.ru_maxrss


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    return lines[:-1], json.loads(lines[-1])


def step(args, env, timeout=STEP_TIMEOUT_S):
    rc, text, rss = spawn([EXE] + args, env, timeout)
    if rc != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(args[:3]), rc))
    head, obj = last_json(text)
    return head, obj, rss


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    os.makedirs(CACHE, exist_ok=True)
    env = environment()
    stage()
    build = subprocess.run(
        ["dune", "build", "--root", SRC, "--build-dir", OUT,
         "./campaignbench/main.exe"],
        cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        log("build failed")
        return 1

    emit = emit_cache()
    env["PATHFUZZ_EMIT_CACHE"] = emit
    common = ["--workload", a.workload, "--cache", emit]
    extra = {}
    # Untimed: compile whatever native units the private cache lacks.
    if a.workload != "paper-matrix":
        step(["prep"] + common, env, PREP_TIMEOUT_S)
    if a.trace:
        cold = os.path.join(CACHE, "cold-emit")
        shutil.rmtree(cold, ignore_errors=True)
        try:
            _, p, _ = step(["prep", "--workload", a.workload, "--cache", cold],
                           env, PREP_TIMEOUT_S)
        finally:
            shutil.rmtree(cold, ignore_errors=True)
        extra["vm.emit_cold_compile_s"] = (p["compile_s"], "s")

    # Cold set-up, one fresh process each; medians.
    setups = [step(["setup"] + common, env)[1] for _ in range(SETUP_PROCESSES)]
    setup_fallbacks = sum(s["fallbacks"] for s in setups)

    run_dir = os.path.join(CACHE, "run-" + a.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    head, res, rss_kb = step(
        ["run"] + common + ["--seed", str(a.seed), "--seconds", str(a.seconds),
                            "--trace", str(a.trace), "--dir", run_dir],
        env)
    shutil.rmtree(run_dir, ignore_errors=True)

    metrics = res["metrics"]
    if a.trace:
        for name in ("minic.program_s", "pathcov.bl_plans_s", "vm.prepare_s",
                     "vm.artifact_load_s"):
            extra[name] = (statistics.median(s[name] for s in setups), "s")
        for name, (v, unit) in extra.items():
            metrics[name] = {"value": v, "unit": unit}
        print("\n".join(head))
        print_table(a.workload, metrics)
    else:
        metrics["setup_s"] = {
            "value": statistics.median(s["setup_s"] for s in setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": rss_kb / 1024.0, "unit": "MB"}
    attempted = res["attempted"] + SETUP_PROCESSES
    failed = res["failed"] + setup_fallbacks
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_table(workload, metrics):
    print("per-layer attribution, workload %s" % workload)
    print("%-16s %-34s %16s  %s" % ("layer", "metric", "value", "moves"))
    for layer, name, moves in LAYERS:
        m = metrics.get(name)
        if m is None:
            continue
        label = name + (" (residual)" if name == "campaign.other_s" else "")
        print("%-16s %-34s %12.6g %-3s  %s" % (layer, label, m["value"], m["unit"], moves))
    print("tracing overhead: %+.1f%% of the untraced wall"
          % metrics["obs.trace_overhead_pct"]["value"])


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, ValueError, KeyError, TimeoutError, OSError,
            subprocess.SubprocessError) as e:
        log("failed: %s" % e)
        sys.exit(1)
