"""Golden verdicts and CSV artifacts of the ten default scenarios.

    PYTHONPATH=src python3 perfbench/golden.py

run from the repository root records every scenario's artifacts at the
default workload seed into ``perfbench/golden/<scenario>/`` and its pass
flags into ``perfbench/golden/verdicts.json``. It then runs the sweep again
at a second seed, fails if any verdict differs, and lists the artifacts
that depend on the seed: those are compared only when a run uses the
default seed.
"""

import json
import os
import shutil
import sys

from workloads import DEFAULT_SEED, GOLDEN_DIR, all_scenarios, output_dir, raw_config

SECOND_SEED = 12345
VERDICTS = os.path.join(GOLDEN_DIR, "verdicts.json")


def load():
    with open(VERDICTS, encoding="utf-8") as fh:
        return json.load(fh)


def compare_verdicts(golden, scenario_ids, verdicts):
    """(attempted, failed, changed) for one pass against the golden flags.

    A diagnostic that raised is missing from ``verdicts`` and counts as
    failed and changed.
    """
    attempted = failed = changed = 0
    for sid in scenario_ids:
        expected = golden["verdicts"][sid]
        got = verdicts.get(sid, {})
        attempted += len(expected)
        for diag, flag in expected.items():
            failed += got.get(diag) is not True
            changed += got.get(diag) != flag
        changed += len(set(got) - set(expected))
    return attempted, failed, changed


def compare_artifacts(golden, scenario_ids, seed):
    """(bytes_written, artifacts_changed) of the CSVs a pass left behind.

    Seed-dependent artifacts are compared only at the default seed; a
    golden file that is missing from the output counts as changed.
    """
    written = changed = 0
    for sid in scenario_ids:
        out = output_dir(sid)
        ref = os.path.join(GOLDEN_DIR, sid)
        names = set(_listdir(out)) | set(_listdir(ref))
        for name in sorted(names):
            path = os.path.join(out, name)
            if os.path.exists(path):
                written += os.path.getsize(path)
            if seed != DEFAULT_SEED and f"{sid}/{name}" in golden["seed_dependent"]:
                continue
            if not (os.path.exists(path) and os.path.exists(os.path.join(ref, name))
                    and _read(path) == _read(os.path.join(ref, name))):
                changed += 1
    return written, changed


def _listdir(path):
    return os.listdir(path) if os.path.isdir(path) else []


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _sweep(seed):
    from rough_transport.config import resolve
    from rough_transport.scenarios import run_scenario

    verdicts = {}
    for sid in all_scenarios():
        cfg = resolve(raw_config(sid, seed))
        shutil.rmtree(cfg.output_dir, ignore_errors=True)
        report = run_scenario(cfg)
        report.write(cfg.output_dir)
        verdicts[sid] = {r.name: r.passed for r in report.results}
    return verdicts


def record():
    verdicts = _sweep(DEFAULT_SEED)
    for sid in all_scenarios():
        dest = os.path.join(GOLDEN_DIR, sid)
        shutil.rmtree(dest, ignore_errors=True)
        shutil.copytree(output_dir(sid), dest)
    second = _sweep(SECOND_SEED)
    if second != verdicts:
        print(f"verdicts differ between seeds {DEFAULT_SEED} and {SECOND_SEED}",
              file=sys.stderr)
        return 1
    seed_dependent = []
    for sid in all_scenarios():
        for name in sorted(os.listdir(output_dir(sid))):
            if _read(os.path.join(output_dir(sid), name)) != _read(
                    os.path.join(GOLDEN_DIR, sid, name)):
                seed_dependent.append(f"{sid}/{name}")
    with open(VERDICTS, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "second_seed": SECOND_SEED,
                   "verdicts": verdicts, "seed_dependent": seed_dependent},
                  fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(record())
