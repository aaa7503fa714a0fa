"""Configuration loading and validation for scenario runs.

Configurations are JSON objects. Unknown keys are rejected at parse time
(with an edit-distance-1 suggestion when one exists); invariant violations
are collected and reported together in a single ValidationError.
"""

import json
from dataclasses import asdict, dataclass, fields

from .errors import ParseError, ValidationError

GLOBAL_DEFAULTS = {
    "seeds_per_axis": 64,
    "steps": 256,
    "eta": 1e-3,
    "rng_seed": 20260801,
    "output_dir": "runs",
    "delta_list": [1e-2, 1e-4, 1e-6],
    "r_list": [2.0, 4.0, 8.0],
    "lambda_list": [9.0, 12.0, 16.0],
    "eps_list": [0.2, 0.1, 0.05, 0.025],
}


@dataclass(frozen=True)
class ScenarioConfig:
    """The configuration schema: its fields, in order, are the known keys."""

    scenario_id: str
    dimension: int
    T: float
    field_id: str
    damping_id: str
    u0_id: str
    seeds_per_axis: object          # int or per-axis tuple
    steps: int
    box_radius: float
    delta_list: tuple
    r_list: tuple
    lambda_list: tuple
    eps_list: tuple
    eta: float
    rng_seed: int
    output_dir: str
    diagnostics: tuple

    def echo(self):
        """Flat provenance mapping for the report."""
        def flat(v):
            if isinstance(v, (tuple, list)):
                return ";".join(str(x) for x in v)
            return v
        return {k: flat(getattr(self, k)) for k in KNOWN_KEYS}


KNOWN_KEYS = tuple(f.name for f in fields(ScenarioConfig))


def _edit_distance(a, b):
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _suggest(key):
    for known in KNOWN_KEYS:
        if _edit_distance(key, known) == 1:
            return known
    return None


def resolve(raw: dict) -> ScenarioConfig:
    """Merge defaults (global, then scenario, then user) and validate."""
    from .scenarios import DAMPING_CATALOG, FIELD_CATALOG, REGISTRY, U0_CATALOG

    unknown = [k for k in raw if k not in KNOWN_KEYS]
    if unknown:
        key = unknown[0]
        suggestion = _suggest(key)
        hint = f"; did you mean {suggestion!r}?" if suggestion else ""
        raise ParseError(f"unknown configuration key {key!r}{hint}",
                         suggestion=suggestion)

    violations = []
    scenario_id = raw.get("scenario_id")
    if not scenario_id:
        violations.append("scenario_id: missing")
        raise ValidationError("invalid configuration: scenario_id missing",
                              violations)
    if scenario_id not in REGISTRY:
        violations.append(f"scenario_id: {scenario_id!r} not in the registry")
        raise ValidationError(
            f"invalid configuration: unknown scenario {scenario_id!r}", violations)
    scenario = REGISTRY[scenario_id]

    merged = dict(GLOBAL_DEFAULTS)
    merged.update({
        "dimension": scenario.dimension,
        "T": scenario.T,
        "field_id": scenario.field_id,
        "damping_id": scenario.damping_id,
        "u0_id": scenario.u0_id,
        "diagnostics": list(scenario.diagnostics),
    })
    merged.update(scenario.defaults)
    merged.update({k: v for k, v in raw.items() if k != "scenario_id"})

    def positive(name, integer=False):
        v = merged.get(name)
        kind = (int,) if integer else (int, float)
        if not isinstance(v, kind) or isinstance(v, bool) or v <= 0:
            violations.append(f"{name}: must be a positive "
                              f"{'integer' if integer else 'number'} (got {v!r})")
            return False
        return True

    positive("T")
    positive("steps", integer=True)
    positive("box_radius")
    positive("eta")

    seeds = merged.get("seeds_per_axis")
    if isinstance(seeds, (list, tuple)):
        if not seeds or any(not isinstance(s, int) or s <= 0 for s in seeds):
            violations.append(f"seeds_per_axis: entries must be positive integers (got {seeds!r})")
        elif len(seeds) != scenario.dimension:
            violations.append(f"seeds_per_axis: needs {scenario.dimension} entries (got {len(seeds)})")
        else:
            merged["seeds_per_axis"] = tuple(seeds)
    elif not isinstance(seeds, int) or isinstance(seeds, bool) or seeds <= 0:
        violations.append(f"seeds_per_axis: must be a positive integer (got {seeds!r})")

    if not isinstance(merged.get("rng_seed"), int) or isinstance(merged.get("rng_seed"), bool):
        violations.append(f"rng_seed: must be an integer (got {merged.get('rng_seed')!r})")

    for name, check in (("delta_list", lambda v: v > 0),
                        ("eps_list", lambda v: v > 0),
                        ("lambda_list", lambda v: v > 0),
                        ("r_list", lambda v: v > 1)):
        vals = merged.get(name)
        if (not isinstance(vals, (list, tuple)) or not vals
                or any(not isinstance(v, (int, float)) or not check(v) for v in vals)):
            bound = "> 1" if name == "r_list" else "positive"
            violations.append(f"{name}: must be a nonempty list of {bound} numbers (got {vals!r})")
        else:
            merged[name] = tuple(float(v) for v in vals)

    if merged.get("dimension") != scenario.dimension:
        violations.append(f"dimension: scenario {scenario_id!r} is "
                          f"{scenario.dimension}-dimensional (got {merged.get('dimension')!r})")
    if merged.get("field_id") not in FIELD_CATALOG:
        violations.append(f"field_id: {merged.get('field_id')!r} not in the catalog")
    if merged.get("damping_id") not in DAMPING_CATALOG:
        violations.append(f"damping_id: {merged.get('damping_id')!r} not in the catalog")
    if merged.get("u0_id") not in U0_CATALOG:
        violations.append(f"u0_id: {merged.get('u0_id')!r} not in the catalog")

    diags = merged.get("diagnostics")
    if not isinstance(diags, (list, tuple)) or not diags:
        violations.append(f"diagnostics: must be a nonempty list (got {diags!r})")
    else:
        bad = [d for d in diags if d not in scenario.diagnostics]
        if bad:
            violations.append(f"diagnostics: {bad!r} not offered by scenario "
                              f"{scenario_id!r} (available: {list(scenario.diagnostics)})")
        if len(set(diags)) != len(diags):
            violations.append("diagnostics: entries must be unique")

    if not isinstance(merged.get("output_dir"), str) or not merged.get("output_dir"):
        violations.append(f"output_dir: must be a nonempty string (got {merged.get('output_dir')!r})")

    if violations:
        raise ValidationError(
            "invalid configuration:\n  " + "\n  ".join(violations), violations)

    merged.update(scenario_id=scenario_id, dimension=scenario.dimension,
                  diagnostics=tuple(merged["diagnostics"]))
    for name in ("T", "box_radius", "eta"):
        merged[name] = float(merged[name])
    return ScenarioConfig(**{k: merged[k] for k in KNOWN_KEYS})


def load_config(path) -> ScenarioConfig:
    """Parse and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read configuration file {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path!r}: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    if not isinstance(raw, dict):
        raise ParseError("configuration root must be a JSON object")
    return resolve(raw)


def default_config(scenario_id) -> dict:
    """The fully resolved defaults of a scenario, as a plain JSON-able dict."""
    cfg = resolve({"scenario_id": scenario_id})
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(cfg).items()}
