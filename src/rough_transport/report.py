"""Run reports and CSV emission.

CSV artifacts carry a header line, '.'-decimal floats at 17 significant
digits (doubles round-trip exactly), so identical configurations produce
byte-identical files.
"""

import os
from dataclasses import dataclass, field as dc_field


def format_value(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Artifact:
    name: str                  # file name, e.g. "gamma_trace.csv"
    header: tuple
    rows: tuple


@dataclass
class DiagnosticResult:
    name: str
    passed: bool
    values: dict               # metric -> measured value
    thresholds: dict           # metric -> tolerance / bound it was judged against
    seconds: float = 0.0
    peak_rss_mb: float = 0.0   # the process's peak RSS once the runner returned
    note: str = ""
    artifacts: tuple = ()


@dataclass
class RunReport:
    scenario_id: str
    config: dict               # echo of the resolved configuration
    version: str
    results: list = dc_field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def summary_rows(self):
        # wall times and peak RSS stay out of the CSVs so identical configs
        # emit byte-identical artifacts
        rows = []
        for r in self.results:
            for key in sorted(r.values):
                rows.append((r.name, key, float(r.values[key]),
                             float(r.thresholds.get(key, float("nan"))),
                             r.passed))
            if not r.values:
                rows.append((r.name, "-", 0.0, float("nan"), r.passed))
        return rows

    def write(self, output_dir):
        os.makedirs(output_dir, exist_ok=True)
        write_csv(os.path.join(output_dir, "diagnostics.csv"),
                  ("diagnostic", "metric", "value", "threshold", "passed"),
                  self.summary_rows())
        config_rows = [(k, format_value(self.config[k])) for k in sorted(self.config)]
        config_rows.append(("code_version", self.version))
        write_csv(os.path.join(output_dir, "provenance.csv"),
                  ("key", "value"), config_rows)
        for r in self.results:
            for art in r.artifacts:
                write_csv(os.path.join(output_dir, art.name), art.header, art.rows)
