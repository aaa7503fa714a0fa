"""One closed-loop pass over a workload's scenarios, in a fresh process.

    PYTHONPATH=src python3 perfbench/one_pass.py --workload NAME --seed N \
        --spawned-at T [--trace] [--setup-only]

Run from the repository root. ``T`` is the caller's ``time.monotonic()``
just before it started this process, so ``setup_s`` spans interpreter
start, the package import and ``config.resolve``. The pass then runs
``scenarios.run_scenario`` and ``RunReport.write`` for each scenario in
turn and prints one JSON object.
"""

import argparse
import json
import resource
import shutil
import sys
import time

from workloads import WORKLOADS, raw_config


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--spawned-at", required=True, type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    from rough_transport import config, scenarios
    from rough_transport.errors import RoughTransportError
    from rough_transport.numerics import worker_count
    t1 = time.monotonic()
    scenario_ids = WORKLOADS[args.workload][0]
    cfgs = [config.resolve(raw_config(sid, args.seed)) for sid in scenario_ids]
    t2 = time.monotonic()
    out = {"setup_s": t2 - args.spawned_at, "import_s": t1 - t0, "resolve_s": t2 - t1}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    import golden
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    for cfg in cfgs:
        shutil.rmtree(cfg.output_dir, ignore_errors=True)

    verdicts, diag_s, scenario_s = {}, {}, {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for cfg in cfgs:
        s0 = time.perf_counter()
        try:
            report = scenarios.run_scenario(cfg)
            report.write(cfg.output_dir)
            results = report.results
        except RoughTransportError as exc:
            print(f"{cfg.scenario_id}: {exc}", file=sys.stderr)
            results = []
        scenario_s[cfg.scenario_id] = time.perf_counter() - s0
        verdicts[cfg.scenario_id] = {r.name: r.passed for r in results}
        diag_s[cfg.scenario_id] = {r.name: r.seconds for r in results}
    out["wall_s"] = time.perf_counter() - wall0
    out["cpu_s"] = time.process_time() - cpu0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["workers"] = worker_count()
    out["verdicts"] = verdicts
    out["diag_s"] = diag_s
    out["scenario_s"] = scenario_s
    out["bytes_written"], out["artifacts_changed"] = golden.compare_artifacts(
        golden.load(), scenario_ids, args.seed)
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(out["workers"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
