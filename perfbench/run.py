"""Closed-loop benchmark of the rough_transport default scenario sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is used from ``src/`` as
checked out; nothing is installed. Each pass runs the workload's
scenarios (``config.resolve`` -> ``scenarios.run_scenario`` ->
``RunReport.write``) in a fresh process with the package's own worker
count, one pass after another for S seconds. The seed
becomes every configuration's ``rng_seed``.

``--trace 0`` reports the end-to-end metrics: medians over the passes, and
for ``setup_s`` over at least five process starts. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics; when the
workload calls ``pointwise_solution`` it adds one traced pass with
``ROUGH_TRANSPORT_THREADS=1`` for the single-thread baseline.

Every pass is checked against the golden verdicts in ``perfbench/golden``.
Metric names and units come from ``BENCHMARK.json``. The last line of
standard output is one JSON object; human-readable lines precede it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import golden
from workloads import BENCH_DIR, BUDGETS_S, SRC_DIR, WORKLOADS, all_scenarios

SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0          # every child is killed before this


class BenchError(Exception):
    pass


def spawn(args, deadline, trace=False, setup_only=False, single_thread=False):
    env = dict(os.environ)
    env.pop("ROUGH_TRANSPORT_THREADS", None)
    if single_thread:
        env["ROUGH_TRANSPORT_THREADS"] = "1"
    src = os.path.abspath(SRC_DIR)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, os.path.join(BENCH_DIR, "one_pass.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    timeout = deadline - time.monotonic()
    if timeout <= 0.0:
        raise BenchError("time limit reached")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("pass exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def closed_loop(args, deadline, traced):
    """Passes, each untraced one paired with a traced one, that fit in --seconds.

    A new pass starts only when the last one, repeated, would end in time.
    """
    stop = time.monotonic() + args.seconds
    plain, traced_passes = [], []
    while True:
        start = time.monotonic()
        plain.append(spawn(args, deadline))
        if traced:
            traced_passes.append(spawn(args, deadline, trace=True))
        now = time.monotonic()
        if now + (now - start) > stop:
            return plain, traced_passes


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def end_to_end(args, deadline, plain):
    setups = [p["setup_s"] for p in plain]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, deadline, setup_only=True)["setup_s"])
    return {"wall_s": median_of(plain, "wall_s"),
            "cpu_s": median_of(plain, "cpu_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median_of(plain, "peak_rss_mb")}


def per_layer(args, deadline, plain, traced):
    """Per-layer metrics, plus the single-thread pass when one was made."""
    layers = {key: statistics.median(p["layers"][key] for p in traced)
              for key in traced[0]["layers"]}
    pw_wall = layers["representation.pointwise_solution.wall_s"]
    speedup = 0.0             # no pointwise_solution call: no pool to compare
    extra = []
    if layers["representation.pointwise_solution.calls"]:
        single = spawn(args, deadline, trace=True, single_thread=True)
        extra.append(single)
        speedup = single["layers"]["representation.pointwise_solution.wall_s"] / pw_wall
    metrics = dict(layers)
    metrics["representation.pool_speedup"] = speedup
    metrics["config.import_s"] = median_of(plain, "import_s")
    metrics["config.resolve_s"] = median_of(plain, "resolve_s")
    metrics["report.bytes_written"] = median_of(traced, "bytes_written")
    metrics["report.artifacts_changed"] = max(p["artifacts_changed"] for p in traced)
    metrics["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")

    # scenario and diagnostic times come from the untraced passes, which
    # are the ones the runtime budgets judge
    gold = golden.load()["verdicts"]
    for sid in all_scenarios():
        mine = sid in plain[0]["scenario_s"]
        metrics[f"scenario.{sid}.wall_s"] = (
            statistics.median(p["scenario_s"][sid] for p in plain) if mine else 0.0)
        for diag in gold[sid]:
            secs = (statistics.median(p["diag_s"][sid].get(diag, 0.0) for p in plain)
                    if mine else 0.0)
            metrics[f"diag.{sid}.{diag}_s"] = secs
            if diag in BUDGETS_S:
                metrics[f"diag.{sid}.{diag}.budget_ratio"] = secs / BUDGETS_S[diag]
    return metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(SRC_DIR, "rough_transport", "__init__.py")):
        print(f"error: no {SRC_DIR}/rough_transport here; run from the repository root",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        plain, traced = closed_loop(args, deadline, traced=bool(args.trace))
        checks = plain + traced
        if args.trace:
            metrics, extra = per_layer(args, deadline, plain, traced)
            checks += extra
        else:
            metrics = end_to_end(args, deadline, plain)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    gold = golden.load()
    scenario_ids = WORKLOADS[args.workload][0]
    attempted = failed = changed = 0
    for p in checks:
        a, f, c = golden.compare_verdicts(gold, scenario_ids, p["verdicts"])
        attempted, failed, changed = attempted + a, failed + f, changed + c
    if args.trace:
        metrics["check.diagnostics_run"] = attempted
        metrics["check.diagnostics_failed"] = failed
        metrics["check.verdicts_changed"] = changed

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in out.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"passes = {len(checks)}; diagnostics_failed = {failed} of "
          f"diagnostics_run = {attempted}; verdicts_changed = {changed}")
    print(json.dumps({"correct": changed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
