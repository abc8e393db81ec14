"""Shared fixtures: one mid-size reference instance and one tiny instance.

Everything heavy is session-scoped so the workspaces (and their cached
resolvent handles) are built once per pytest run.  BLAS runs on one
thread, set before numpy loads: the timed acceptance criteria measure the
code, not thread contention with whatever else the machine runs.
"""

import os
import types
import weakref

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

import polaronlab as pl

REF_LEVELS = (2, 3, 4)


@pytest.fixture(scope="session")
def ref_grid():
    # 1d grid with 8 modes: spacing 0.5 on [-2, 2] minus the origin
    return pl.build_grid(1, 2.0, 0.5)


@pytest.fixture(scope="session")
def ref_ff(ref_grid):
    return pl.sample_form_factor(ref_grid, "gaussian", 0.1)


@pytest.fixture(scope="session")
def ref_workspaces(ref_grid, ref_ff):
    return {n: pl.build_workspace(ref_grid, ref_ff, n) for n in REF_LEVELS}


@pytest.fixture(scope="session")
def ref_bundles(ref_workspaces):
    return {n: ws.build_bundle() for n, ws in ref_workspaces.items()}


@pytest.fixture(scope="session")
def small_grid():
    # two modes: {-1, +1}
    return pl.build_grid(1, 1.0, 1.0)


@pytest.fixture(scope="session")
def small_ff(small_grid):
    return pl.sample_form_factor(small_grid, "gaussian", 0.2)


@pytest.fixture(scope="session")
def small_workspaces(small_grid, small_ff):
    return {n: pl.build_workspace(small_grid, small_ff, n) for n in REF_LEVELS}


@pytest.fixture(scope="session")
def shifted_workspace():
    """Nonzero fiber shift tuned so real eigenvalues land inside the
    spectral window probed by the one-particle Schur complement."""
    grid = pl.build_grid(1, 1.0, 0.25)
    ff = pl.sample_form_factor(grid, "gaussian", 0.05)
    return pl.build_workspace(grid, ff, 2, xi=np.array([0.45]))


@pytest.fixture(scope="session")
def solver_config():
    return pl.SolverConfig()


@pytest.fixture
def live_factors(monkeypatch):
    """Swaps ``spectral.SymmetricFactor`` for a subclass that tracks its
    instances by weakref and fails any build made while another instance is
    alive.  Returns ``built``, the labels in build order, and ``live``, the
    instances still alive."""
    tracked = types.SimpleNamespace(built=[], live=weakref.WeakSet())

    class TrackedFactor(pl.spectral.SymmetricFactor):
        def __init__(self, mat, shift, label="operator"):
            alive = sorted(f.label for f in tracked.live)
            assert not alive, f"{label} built while {alive} alive"
            super().__init__(mat, shift, label)
            self.label = label
            tracked.live.add(self)
            tracked.built.append(label)

    monkeypatch.setattr(pl.spectral, "SymmetricFactor", TrackedFactor)
    return tracked
