import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from kzquench.evolver import SolverOptions

# the same examples on every run, no example database to replay, and no per-example
# deadline, which a loaded machine could miss
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def fast_opts():
    """Tolerances for sweep-style tests (defect densities need ~1e-4)."""
    return SolverOptions(rel_tol=1e-7, abs_tol=1e-9)


@pytest.fixture(scope="session")
def tight_opts():
    return SolverOptions(rel_tol=1e-10, abs_tol=1e-12)


@pytest.fixture(scope="session")
def frozen_values():
    """Closed-form values computed once and frozen in data/golden_values.json."""
    with open(Path(__file__).parent / "data" / "golden_values.json") as fh:
        return json.load(fh)


def approx_rel(a, b, tol):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.all(np.abs(a - b) <= tol * np.maximum(np.abs(b), 1e-300))
