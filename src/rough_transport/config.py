"""Configuration loading and validation for scenario runs.

Configurations are JSON objects. Unknown keys are rejected at parse time
(with an edit-distance-1 suggestion when one exists). Every other key is
judged by its rule in ``_RULES``; the violations are collected and reported
together in a single ValidationError, one ``key: value reason`` line each.
"""

import json
import sys
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple

from .errors import ParseError, ValidationError
from .scenarios import DAMPING_CATALOG, FIELD_CATALOG, REGISTRY, U0_CATALOG

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


def _number(v):
    """The one meaning of "a number": a finite int or float that is not a bool.

    NaN, +-inf and ints beyond the float range fail, in scalars and list
    entries alike.
    """
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _integer(v, least):
    return _number(v) and isinstance(v, int) and v >= least


def _listed(v, ok):
    return isinstance(v, (list, tuple)) and len(v) > 0 and all(ok(x) for x in v)


def _in(v, catalog):
    return isinstance(v, str) and v in catalog


def _built(catalog, v, *args):
    """Catalog entry ``v`` built for ``args``; None if absent or refused (by ValueError)."""
    try:
        return catalog[v](*args) if _in(v, catalog) else None
    except ValueError:
        return None


class _Rule(NamedTuple):
    test: Callable            # (value, scenario) -> whether the value is valid
    reason: str               # formatted with the scenario as ``s``
    coerce: Callable = lambda v: v


def _numbers(above, what):
    return _Rule(lambda v, s: _listed(v, lambda x: _number(x) and x > above),
                 f"is not a nonempty list of {what}", lambda v: tuple(float(x) for x in v))


_POSITIVE = _Rule(lambda v, s: _number(v) and v > 0, "is not a positive number", float)

# One rule per key but scenario_id, in KNOWN_KEYS order. A catalog entry must
# build the scenario's dimension: a field's own output is the declaration, and
# a damping or an initial datum that reads only x_1 refuses d != 1.
_RULES = {
    "dimension": _Rule(lambda v, s: _number(v) and v == s.dimension,
                       "is not the dimension {s.dimension} of scenario {s.scenario_id!r}", int),
    "T": _POSITIVE,
    "field_id": _Rule(lambda v, s: getattr(_built(FIELD_CATALOG, v, s.dimension, s.T),
                                           "dimension", None) == s.dimension,
                      "not in the catalog of {s.dimension}-D fields"),
    "damping_id": _Rule(lambda v, s: _built(DAMPING_CATALOG, v, s.dimension) is not None,
                        "not in the catalog of {s.dimension}-D dampings"),
    "u0_id": _Rule(lambda v, s: _built(U0_CATALOG, v, s.dimension) is not None,
                   "not in the catalog of {s.dimension}-D initial data"),
    "seeds_per_axis": _Rule(
        lambda v, s: _integer(v, 1) or (_listed(v, lambda x: _integer(x, 1))
                                        and len(v) == s.dimension),
        "is not a positive integer or a list of {s.dimension} of them",
        lambda v: v if isinstance(v, int) else tuple(v)),
    "steps": _Rule(lambda v, s: _integer(v, 1), "is not a positive integer"),
    "box_radius": _POSITIVE,
    "delta_list": _numbers(0, "positive numbers"),
    "r_list": _numbers(1, "numbers > 1"),
    "lambda_list": _numbers(0, "positive numbers"),
    "eps_list": _numbers(0, "positive numbers"),
    "eta": _POSITIVE,
    # numpy.random.default_rng takes no negative seed
    "rng_seed": _Rule(lambda v, s: _integer(v, 0), "is not an integer >= 0"),
    "output_dir": _Rule(lambda v, s: isinstance(v, str) and v != "", "is not a nonempty string"),
    "diagnostics": _Rule(
        lambda v, s: _listed(v, lambda x: x in s.diagnostics) and len(set(v)) == len(v),
        "is not a nonempty list of distinct diagnostics of scenario "
        "{s.scenario_id!r} (available: {s.diagnostics})", tuple),
}


def resolve(raw: dict) -> ScenarioConfig:
    """Merge defaults (global, then scenario, then user) and judge each key by its rule."""
    unknown = [k for k in raw if k not in KNOWN_KEYS]
    if unknown:
        suggestion = _suggest(unknown[0])
        hint = f"; did you mean {suggestion!r}?" if suggestion else ""
        raise ParseError(f"unknown configuration key {unknown[0]!r}{hint}",
                         suggestion=suggestion)

    scenario_id = raw.get("scenario_id")
    if not scenario_id:
        raise ValidationError("invalid configuration: scenario_id missing",
                              ["scenario_id: missing"])
    if not _in(scenario_id, REGISTRY):
        raise ValidationError(f"invalid configuration: unknown scenario {scenario_id!r}",
                              [f"scenario_id: {scenario_id!r} not in the registry"])
    scenario = REGISTRY[scenario_id]
    merged = {**GLOBAL_DEFAULTS, "dimension": scenario.dimension, "T": scenario.T,
              "field_id": scenario.field_id, "damping_id": scenario.damping_id,
              "u0_id": scenario.u0_id, "diagnostics": scenario.diagnostics,
              **scenario.defaults, **raw}

    violations = []
    for key, rule in _RULES.items():
        value = merged.get(key)
        if rule.test(value, scenario):
            merged[key] = rule.coerce(value)
        else:
            violations.append(f"{key}: {value!r} " + rule.reason.format(s=scenario))
    if violations:
        raise ValidationError(
            "invalid configuration:\n  " + "\n  ".join(violations), violations)
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
