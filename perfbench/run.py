"""The repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]     # every workload
    python3 perfbench/run.py --compare DIR_A DIR_B        # two result sets

Run from the repository root.  With ``--workload`` the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Lines above it name
each metric, and the report names (``verify_p50_ms`` and so on), with
its unit and direction.  Each run also writes a result file, with the commit,
the Python version and ``nproc``, under ``.perfbench/results`` (``--out``).
A run whose outputs fail a check exits with code 1; a directory without the
program's sources exits with code 2.

Every workload reports the same end-to-end metrics, for its own operation:
``op_p50_ms`` and ``op_tail_ms`` (the median and the highest percentile of
a fixed ladder with at least ten samples beyond it, per block of
operations, median over blocks),
``ops_per_s`` and ``setup_s`` (median of several fresh interpreters).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import Clock, timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None
SETUP_RUNS = 7
BLOCK = 200  # operations per block for the latency statistics
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
ALGEBRA = {"enum", "oracle", "snf"}

# Report names of the end-to-end metrics per workload: (name, unit, scale).
REPORT_NAMES = {
    "golden": {"op_p50_ms": ("verify_p50_ms", "ms", 1), "op_tail_ms": ("verify_tail_ms", "ms", 1)},
    "cli": {"op_p50_ms": ("cli_verify_p50_s", "s", 1e-3), "op_tail_ms": ("cli_verify_tail_s", "s", 1e-3)},
    "mutants": {
        "ops_per_s": ("mutants_per_s", "1/s", 1),
        "op_p50_ms": ("mutant_p50_ms", "ms", 1),
        "op_tail_ms": ("mutant_tail_ms", "ms", 1),
    },
    "enum": {"ops_per_s": ("enum_pairs_per_s", "1/s", 1)},
    "oracle": {"ops_per_s": ("oracle_pairs_per_s", "1/s", 1)},
    "snf": {"ops_per_s": ("snf_per_s", "1/s", 1)},
}


def tail(samples):
    """(value, percentile, count): the highest percentile of TAIL_LADDER
    that has at least ten samples above it, by nearest rank.  A fixed ladder
    keeps the percentile from drifting with the sample count and off the
    few slowest operations, which a garbage-collector pause moves around."""
    xs = sorted(samples)
    n = len(xs)
    pct = max((p for p in TAIL_LADDER if n - math.ceil(p / 100 * n) >= 10), default=TAIL_LADDER[0])
    return xs[max(math.ceil(pct / 100 * n) - 1, 0)], pct, n


def setup_times(kind: str):
    """Calibrated set-up seconds (median over fresh interpreters), its raw
    value, and the calibrated median of each part."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src/cohomotopy/data/paper.cohdb")]
    second = "group_list_s" if kind in ALGEBRA else "load_db_s"
    parts, raw = [], []
    clock = Clock(timer=False)
    for i in range(SETUP_RUNS + 1):
        clock.sample()
        start = time.perf_counter()
        out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        end = time.perf_counter()
        clock.sample()
        scale = clock.scale(start, end)
        if i:  # the first interpreter may write the bytecode cache
            times = json.loads(out.stdout.strip().splitlines()[-1])
            raw.append(times["import_s"] + times[second])
            parts.append({k: v * scale for k, v in times.items()})
    med = {k: statistics.median(p[k] for p in parts) for k in parts[0]}
    return statistics.median(p["import_s"] + p[second] for p in parts), statistics.median(raw), med


def blocks(sweep):
    """``sweep`` cut into blocks of BLOCK operations; a shorter last block
    joins the one before it."""
    n = max(len(sweep) // BLOCK, 1)
    return [sweep[i * BLOCK: (i + 1) * BLOCK if i < n - 1 else len(sweep)] for i in range(n)]


def op_metrics(sweeps):
    """op_p50_ms and op_tail_ms per block, ops_per_s per sweep; each the
    median over blocks or sweeps."""
    cut = [b for sweep in sweeps for b in blocks(sweep)]
    tails = [tail(b) for b in cut]
    return {
        "op_p50_ms": statistics.median(statistics.median(b) for b in cut) * 1e3,
        "op_tail_ms": statistics.median(t[0] for t in tails) * 1e3,
        "ops_per_s": statistics.median(len(t) / sum(t) for t in sweeps),
    }, tails


def end_to_end(run, setup_s, setup_raw_s):
    scale = run.clock.scale
    metrics, tails = op_metrics([[d * scale(s, e) for s, e, d in sweep] for sweep in run.sweeps])
    metrics["setup_s"] = setup_s
    raw, _ = op_metrics([[d for _, _, d in sweep] for sweep in run.sweeps])
    raw["setup_s"] = setup_raw_s
    detail = {
        "tail_percentile": statistics.median(t[1] for t in tails),
        "blocks": len(tails),
        "samples": sum(t[2] for t in tails),
        "sweeps": len(run.sweeps),
        "uncalibrated": raw,
        "calibration_s": {"median": statistics.median(run.clock.cal), "samples": len(run.clock.cal)},
    }
    return metrics, detail


def per_layer(workload, run, seed, out_dir):
    from spans import Tracer

    import workloads

    lr, types, real = workloads.LR_POSITIVE, workloads.ORACLE_TYPES, workloads.ORACLE_REALIZABLE

    def calibrated_unit(tracer=None):
        clock, times = Clock(timer=False), []
        with clock.running():
            ops = timed(clock, times, workload.unit, run, tracer)
        start, end, seconds = times[0]
        return ops, seconds * clock.scale(start, end)

    _, untraced_s = calibrated_unit()
    tracer = Tracer()
    caches = (lr, types, real)
    # clearing a cache also resets its counters
    before = [c.cache_info()._replace(hits=0, misses=0) if c in workload.cleared else c.cache_info() for c in caches]
    tracer.install()
    try:
        ops, traced_s = calibrated_unit(tracer)
    finally:
        tracer.remove()
    tracer.write(out_dir / "traces" / f"{workload.name}-seed{seed}.tsv.gz")

    totals = tracer.layer_totals()
    metrics = {}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        layer, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s") and layer in totals:
            metrics[name] = totals[layer][stat] / ops
    (lr_hits, lr_misses), (_, types_misses), (real_hits, real_misses) = [
        (c.cache_info().hits - b.hits, c.cache_info().misses - b.misses) for c, b in zip(caches, before)
    ]

    def hit_ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    snf_calls = totals["abelian.smith_normal_form"]["calls"]
    metrics.update({
        "extensions.lr_positive.hit_ratio": hit_ratio(lr_hits, lr_misses),
        "extensions.lr_positive.misses": lr_misses,
        "oracle.subgroup_quotient_types.misses": types_misses,
        "oracle.realizable.hit_ratio": hit_ratio(real_hits, real_misses),
        "abelian.smith_normal_form.distinct_ratio": len(tracer.snf_inputs) / snf_calls if snf_calls else 0.0,
        "trace.overhead_ratio": traced_s / untraced_s,
        "mutants.kill_ratio": run.extra.get("kill_ratio", 0.0),
    })
    return metrics


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import workloads

    # the calibration only tracks the speed of the processor it runs on, so
    # the run and its child processes stay on one
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.WORKLOADS[args.workload]()
    run = workloads.Run(workload.timer and not args.trace, workload.interval)
    setup_s, setup_raw_s, setup_parts = setup_times(workload.name)
    workload.prepare(args.seed)
    units = {spec["name"]: spec["unit"] for spec in SPEC["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        metrics = per_layer(workload, run, args.seed, args.out)
        metrics.update({f"setup.{k}": v for k, v in setup_parts.items()})
        detail = {}
    else:
        workload.measure(args.seconds, run)
        metrics, detail = end_to_end(run, setup_s, setup_raw_s)
        for metric, (report, unit, scale) in REPORT_NAMES[workload.name].items():
            detail[report] = {"value": metrics[metric] * scale, "unit": unit}
        detail["setup_s"] = {"value": setup_s, "unit": "s"}
        detail["fail_ratio"] = {"value": run.failed / run.attempted, "unit": "ratio"}
        if "kill_ratio" in run.extra:
            detail["kill_ratio"] = {"value": run.extra["kill_ratio"], "unit": "ratio"}
    metrics = {name: metrics.get(name, 0.0) for name in units}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    record = {
        "workload": workload.name, "operation": workload.op, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "commit": commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "result": result, "report": detail, "extra": run.extra,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = args.out / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    directions = {s["name"]: s.get("better", "") for s in SPEC["end_to_end"]}
    for name, v in result["metrics"].items():
        better = directions.get(name)
        print(f"{workload.name:8s} {name:44s} {v['value']:.6g} {v['unit']}" + (f" ({better} is better)" if better else ""))
    for name, v in detail.items():
        if isinstance(v, dict) and "unit" in v:
            print(f"{workload.name:8s} {'report ' + name:44s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for spec in SPEC["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", spec["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(args.out)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        print("\n".join(proc.stdout.strip().splitlines()[:-1]))
        status = status or proc.returncode
    return status


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(dir_a: Path, dir_b: Path) -> int:
    """Per (workload, metric): each side's median and quartiles, flagged
    within bound, worse, or unresolved (spread wider than the bound)."""

    def load(d):
        out = {}
        for p in sorted(d.glob("*.json")):
            rec = json.loads(p.read_text())
            if rec.get("trace"):
                continue
            for name, v in rec["result"]["metrics"].items():
                out.setdefault((rec["workload"], name), []).append(v["value"])
        return out

    a, b = load(dir_a), load(dir_b)
    specs = {s["name"]: s for s in SPEC["end_to_end"]}
    print(f"{'workload':8s} {'metric':12s} {'A q1/median/q3':34s} {'B q1/median/q3':34s} B worse by  flag")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        spec = specs.get(name)
        if spec is None:
            continue
        qa, qb = quartiles(a[key]), quartiles(b[key])
        sign = 1 if spec["better"] == "lower" else -1
        worse_by = sign * (qb[1] - qa[1]) / qa[1]
        spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
        b_always_better = (max(b[key]) < min(a[key])) if sign > 0 else (min(b[key]) > max(a[key]))
        if spread > spec["bound"] and not b_always_better:
            flag = "unresolved"
        elif worse_by > spec["bound"]:
            flag = "worse"
        else:
            flag = "within bound"
        fa = "/".join(f"{x:.4g}" for x in qa)
        fb = "/".join(f"{x:.4g}" for x in qb)
        print(f"{workload:8s} {name:12s} {fa:34s} {fb:34s} {worse_by:+10.1%}  {flag}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "results")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("DIR_A", "DIR_B"))
    args = parser.parse_args(argv)
    if SPEC is None or not (ROOT / "src" / "cohomotopy" / "__init__.py").is_file():
        print(f"error: no BENCHMARK.json or no src/cohomotopy under {ROOT}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = SPEC["run_seconds"]
    if args.workload is None:
        return run_all(args)
    if args.workload not in {w["name"] for w in SPEC["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
