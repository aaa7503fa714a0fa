"""Cell-level diff of scenario artifacts against ``perfbench/golden/``.

    PYTHONPATH=src python3 tests/golden_diff.py [SCENARIO ...]
    PYTHONPATH=src python3 tests/golden_diff.py --run-dir DIR [SCENARIO ...]

Without ``--run-dir`` it runs each named scenario (by default all of them)
at its default configuration into a temporary directory; with it, it reads
``DIR/<scenario>/``, laid out like the golden copy. It prints every CSV
cell that differs (scenario, file, row, column, old and new value, and the
absolute and relative change), every added or missing row and file, and
exits 1 when anything differs. Rows are counted from the header, row 1.
The golden test carries the same listing in its failure message; the byte
comparison there stays the verdict, and this listing only explains it. Not
collected by pytest: the file name does not start with ``test_``.
"""

import argparse
import csv
import itertools
import math
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


class Change(NamedTuple):
    scenario: str
    file: str
    kind: str                 # cell, added row, missing row, added file, missing file, bytes
    row: int = 0
    column: str = ""
    old: str = ""
    new: str = ""

    def __str__(self):
        where = f"{self.scenario}/{self.file}"
        if self.kind == "cell":
            return (f"{where} row {self.row} column {self.column}: "
                    f"{self.old} -> {self.new}{_size(self.old, self.new)}")
        if self.kind.endswith("row"):
            return f"{where} row {self.row} {self.kind}: {self.new or self.old}"
        return f"{where}: {self.kind}"


def _size(old, new):
    try:
        a, b = float(old), float(new)
    except ValueError:
        return ""
    change = abs(b - a)
    rel = change / abs(a) if a != 0.0 else (0.0 if change == 0.0 else math.inf)
    return f" (abs {change:.3g}, rel {rel:.3g})"


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def diff_scenario(run_dir, scenario_id, golden_root=GOLDEN_DIR):
    """Every change from ``golden_root/scenario_id`` to the files in ``run_dir``."""
    run_dir, golden = Path(run_dir), Path(golden_root) / scenario_id
    new_names = {p.name for p in run_dir.iterdir()}
    old_names = {p.name for p in golden.iterdir()}
    changes = [Change(scenario_id, n, "added file") for n in sorted(new_names - old_names)]
    changes += [Change(scenario_id, n, "missing file") for n in sorted(old_names - new_names)]
    for name in sorted(new_names & old_names):
        if (run_dir / name).read_bytes() == (golden / name).read_bytes():
            continue
        old, new = _rows(golden / name), _rows(run_dir / name)
        header = old[0] if old else []
        found = [Change(scenario_id, name, "cell", i, header[j] if j < len(header) else str(j),
                        a, b)
                 for i, (old_row, new_row) in enumerate(zip(old, new), 1)
                 for j, (a, b) in enumerate(itertools.zip_longest(old_row, new_row,
                                                                  fillvalue=""))
                 if a != b]
        found += [Change(scenario_id, name, "added row", i, new=",".join(r))
                  for i, r in enumerate(new[len(old):], len(old) + 1)]
        found += [Change(scenario_id, name, "missing row", i, old=",".join(r))
                  for i, r in enumerate(old[len(new):], len(new) + 1)]
        # only the line endings or the quoting changed
        changes += found or [Change(scenario_id, name, "bytes")]
    return changes


def listing(changes, limit=40):
    """The changes one per line, capped at ``limit`` with a count of the rest."""
    lines = [str(c) for c in changes[:limit]]
    if len(changes) > limit:
        lines.append(f"... and {len(changes) - limit} more")
    return "\n".join(lines)


def _fresh_run(root, scenario_ids):
    from rough_transport.config import resolve
    from rough_transport.scenarios import run_scenario
    for sid in scenario_ids:
        # the golden provenance.csv echoes output_dir ".bench_out/<id>"
        cfg = resolve({"scenario_id": sid, "output_dir": f".bench_out/{sid}"})
        run_scenario(cfg).write(str(Path(root) / sid))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*")
    parser.add_argument("--run-dir", help="read DIR/<scenario>/ instead of running")
    args = parser.parse_args(argv)
    scenario_ids = args.scenarios or sorted(p.name for p in GOLDEN_DIR.iterdir() if p.is_dir())
    with tempfile.TemporaryDirectory() as tmp:
        root = args.run_dir or tmp
        if not args.run_dir:
            _fresh_run(root, scenario_ids)
        changes = [c for sid in scenario_ids for c in diff_scenario(Path(root) / sid, sid)]
    print(listing(changes, limit=len(changes)) if changes else "no changes")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
