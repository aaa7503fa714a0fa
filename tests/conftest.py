"""Shared fixtures: catalog fields, dampings and initial data."""

import tracemalloc

import numpy as np
import pytest

from rough_transport.fields import DampingFieldSpec
from rough_transport.flow import make_seed_grid
from rough_transport import scenarios
from rough_transport.scenarios import DAMPING_CATALOG, FIELD_CATALOG, U0_CATALOG

from reference import integrate_flow


@pytest.fixture(autouse=True)
def fresh_log_renormalizers():
    """Each test certifies its log renormalizers anew, as a fresh process does.

    The scenario runners share one certified renormalizer per delta for the
    whole process; without this, a test that patches ``check_admissible``
    would read a renormalizer an earlier test certified.
    """
    scenarios._certified_beta_log.cache_clear()


def field(field_id, d=1, T=1.0):
    return FIELD_CATALOG[field_id](d, T)


def damping(damping_id, d=1):
    return DAMPING_CATALOG[damping_id](d)


def u0_fn(u0_id, d=1):
    return U0_CATALOG[u0_id](d)


def unit_damping():
    """c = 1 everywhere, for closed forms like D(t, x) = t; no scenario uses it."""
    return DampingFieldSpec(eval_c=lambda t, x: np.ones(np.asarray(x).shape[:-1]),
                            sup_c=lambda t: 1.0, label="unit")


def long_linear_flow():
    """(linear_expand, its 512-seed 2000-step forward flow, one table's bytes).

    One (N, K+1) float table is 8.2 MB, so memory bounds in table units
    stand well clear of the allocator's bookkeeping.
    """
    spec = field("linear_expand")
    fl = integrate_flow(spec, make_seed_grid(1.0, 512, 1), 2000, "forward")
    return spec, fl, fl.trajectories[..., 0].nbytes


def traced_bytes(call):
    """(call(), bytes it leaves allocated, its peak bytes), by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, now - before, peak - before


@pytest.fixture
def zero_field():
    return field("zero")


@pytest.fixture
def linear_field():
    return field("linear_expand")


@pytest.fixture
def contract_field():
    return field("linear_contract")


@pytest.fixture
def rotation_field():
    return field("rotation", d=2, T=np.pi / 2.0)


@pytest.fixture
def shear_field():
    return field("shear", d=2)


@pytest.fixture
def zero_damping():
    return damping("zero")
