"""Identity verification suite: classifications, trends, and reports."""

import dataclasses
import json
import logging
import re

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import polaronlab as pl
from polaronlab import ConfigError, storage
from polaronlab.identities import (
    EXACT,
    THRESHOLDS,
    ORACLE_LIMITED,
    TRUNCATION_LIMITED,
    BRACKET_DELTA,
    EPSILON_GRID,
    _bracket_crossings,
    _strictly_decreasing,
    norm_identity_value,
    verify_energy_derivatives,
    verify_pullthrough,
)
from polaronlab.reduction import TAIL_ONE, TAIL_TWO, ReductionWorkspace
from polaronlab.spectral import SpdSolver

LEVELS = (2, 3, 4)


def _suite(grid, ff, levels, **kwargs):
    """The identity suite on freshly built workspaces."""
    workspaces = {n: pl.build_workspace(grid, ff, n) for n in levels}
    return pl.run_suite(workspaces, **kwargs)


@pytest.fixture(scope="module")
def small_suite(small_grid, small_ff):
    reports = _suite(small_grid, small_ff, LEVELS)
    return {r.identity: r for r in reports}


def test_suite_covers_all_identities(small_suite):
    assert set(small_suite) == set(pl.IDENTITY_IDS)


def test_classifications(small_suite):
    expect = {
        "pullthrough-creator": TRUNCATION_LIMITED,
        "pullthrough-annihilator": TRUNCATION_LIMITED,
        "resolvent-splitting-vacuum": EXACT,
        "resolvent-splitting-one-boson": EXACT,
        "vacuum-schur": EXACT,
        "lambda-oneboson": TRUNCATION_LIMITED,
        "c0-identity": EXACT,
        "rearrangement": EXACT,
        "norm-identity": TRUNCATION_LIMITED,
        "energy-derivatives": ORACLE_LIMITED,
    }
    for name, cls in expect.items():
        assert small_suite[name].classification == cls


def test_everything_passes_on_small_instance(small_suite):
    for report in small_suite.values():
        assert report.passed is True, report.identity


EXACT_IDS = (
    "resolvent-splitting-vacuum",
    "resolvent-splitting-one-boson",
    "vacuum-schur",
    "c0-identity",
    "rearrangement",
)


def test_exact_identities_at_machine_precision(small_suite):
    for name in EXACT_IDS:
        for value in small_suite[name].summary:
            assert value <= 1e-12, name


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from([(1, 2.0, 0.5), (1, 1.0, 0.5), (2, 1.0, 1.0)]),
    profile=st.sampled_from(pl.grid.PROFILES),
    g=st.floats(0.0, 1.5),
    dense_threshold=st.sampled_from([10, 500]),
)
def test_exact_identities_hold_on_random_instances(shape, profile, g, dense_threshold):
    """The exact identities pass, each within its ``THRESHOLDS`` bound, on
    levels (2, 3) of small d=1 and d=2 instances, on the dense and on the
    sparse path."""
    grid = pl.build_grid(*shape)
    # alpha (froehlich only) must lie below d; 0.5 serves both dimensions
    ff = pl.sample_form_factor(grid, profile, g, alpha=0.5)
    config = pl.SolverConfig(dense_threshold=dense_threshold)
    workspaces = {n: pl.build_workspace(grid, ff, n, config=config) for n in (2, 3)}
    for report in pl.run_suite(workspaces, only=EXACT_IDS):
        assert report.passed is not False, (report.identity, report.summary)
        for nmax, value in zip(report.nmax_levels, report.summary):
            if value is None:
                # only the rearrangement needs the decomposition, which c0 <= 0 rules out
                bundle = workspaces[nmax].build_bundle()
                assert report.identity == "rearrangement" and not bundle.c0_positive
            else:
                assert value <= report.threshold, (report.identity, nmax, value)


def test_truncation_ladders_strictly_decrease(small_suite):
    for name in (
        "pullthrough-creator",
        "pullthrough-annihilator",
        "lambda-oneboson",
        "norm-identity",
    ):
        vals = small_suite[name].summary
        assert all(b < a for a, b in zip(vals, vals[1:])), name


def test_pullthrough_protected_probes(small_suite):
    for name in ("pullthrough-creator", "pullthrough-annihilator"):
        protected = small_suite[name].residuals["protected"]
        # no protected sector exists at the smallest truncation
        assert protected[0] is None
        for value in protected[1:]:
            assert value is not None and value <= 1e-12
        boundary = [v for v in small_suite[name].residuals["boundary"] if v is not None]
        assert all(b < a for a, b in zip(boundary, boundary[1:]))


def test_norm_identity_families(small_suite):
    report = small_suite["norm-identity"]
    for family in (
        "pairing",
        "vector_construction",
        "scalar_pairing",
        "null_vector",
        "construction_paths",
    ):
        assert family in report.residuals
    assert report.residuals["pairing"][-1] <= 1e-2
    phi_norms = report.details["phi_norms"]
    assert all(n is not None and 0.9 < n < 1.0 for n in phi_norms)


def test_report_serializes_to_json(small_suite):
    for report in small_suite.values():
        payload = storage.jsonable(dataclasses.asdict(report))
        text = json.dumps(payload, allow_nan=False)
        assert json.loads(text)["identity"] == report.identity
        assert payload["nmax_levels"] == list(LEVELS) or payload["nmax_levels"] == [4]


def test_suite_filter_and_unknown_id(small_grid, small_ff):
    reports = _suite(small_grid, small_ff, LEVELS, only=["vacuum-schur"])
    assert [r.identity for r in reports] == ["vacuum-schur"]
    with pytest.raises(ConfigError):
        _suite(small_grid, small_ff, LEVELS, only=["vacuum-schur", "bogus-id"])
    with pytest.raises(ConfigError):
        pl.run_suite({})
    # ``only`` is keyword-only: a second positional argument is no filter
    with pytest.raises(TypeError):
        pl.run_suite({}, ["vacuum-schur"])


def test_single_level_has_no_trend(small_grid, small_ff):
    reports = _suite(small_grid, small_ff, (3,))
    for report in reports:
        # one point is not a ladder: nothing can fail on trend alone
        assert report.passed is not False


def test_free_coupling_suite(small_grid):
    ff0 = pl.sample_form_factor(small_grid, "gaussian", 0.0)
    reports = {r.identity: r for r in _suite(small_grid, ff0, LEVELS)}
    # residuals collapse to the numerical floor; that must count as passing
    for name in ("pullthrough-creator", "lambda-oneboson", "c0-identity"):
        assert reports[name].passed is True
    # the weighted decomposition does not exist without coupling
    assert reports["norm-identity"].passed is None
    assert reports["rearrangement"].passed is None


def test_trend_helper_floor_semantics():
    assert _strictly_decreasing([1e-3, 1e-5, 1e-7]) is True
    assert _strictly_decreasing([1e-3, 1e-5, 1e-5]) is False
    assert _strictly_decreasing([0.0, 0.0, 0.0]) is True  # at the floor
    assert _strictly_decreasing([1e-3]) is None
    assert _strictly_decreasing([None, 1e-3]) is None
    assert _strictly_decreasing([1e-3, None, 1e-4]) is True


def test_pullthrough_probe_validation(small_workspaces):
    with pytest.raises(ConfigError):
        verify_pullthrough({3: small_workspaces[3]}, "sideways")


def test_norm_identity_value_paths(ref_bundles, small_grid):
    value = norm_identity_value(ref_bundles[4])
    assert value == pytest.approx(1.0, abs=1e-2)
    ff0 = pl.sample_form_factor(small_grid, "gaussian", 0.0)
    ws0 = pl.build_workspace(small_grid, ff0, 2)
    assert norm_identity_value(ws0.build_bundle()) is None


def test_energy_derivatives_cross_terms():
    """Two-dimensional grid exercises the off-diagonal momentum algebra."""
    grid = pl.build_grid(2, 1.0, 1.0)
    ff = pl.sample_form_factor(grid, "gaussian", 0.15)
    ws = pl.build_workspace(grid, ff, 2)
    report = verify_energy_derivatives(ws)
    assert report.passed is True
    assert report.residuals["gradient_rel"][0] <= THRESHOLDS["gradient_rel"]
    assert report.residuals["gradient_at_origin"][0] <= 1e-10
    assert report.residuals["hessian_rel"][0] <= THRESHOLDS["hessian_rel"]


def test_weighted_resolvent_norm_free_value(ref_grid):
    """At zero coupling the weighted tail resolvent is diagonal and its
    norm is known in closed form: sup (1+|p|)^2 / (p^2+n) = 2, attained by
    a single boson at |p| = 1."""
    ff0 = pl.sample_form_factor(ref_grid, "gaussian", 0.0)
    ws = pl.build_workspace(ref_grid, ff0, 3)
    report = verify_energy_derivatives(ws)
    norms = report.details["weighted_resolvent_norms"]
    for value in norms.values():
        assert value == pytest.approx(2.0, abs=1e-6)


def test_weighted_resolvent_norm_matches_dense(ref_workspaces):
    """The Lanczos norm of ``W Y(k) W`` is the top eigenvalue of the dense
    weighted resolvent, and its residual bound lies at or above it."""
    ws = ref_workspaces[4]
    details = verify_energy_derivatives(ws).details
    norms = details["weighted_resolvent_norms"]
    bounds = details["weighted_resolvent_norm_bounds"]
    assert len(norms) == len(bounds) == 3
    for key, value in norms.items():
        k = np.array(json.loads(key))
        tail = ws.restricted_matrix(TAIL_ONE, k, -ws.e0).toarray()
        weight = (1.0 + np.sqrt(ws.kinetic_diagonal(k)))[ws.start1 :]
        dense = weight[:, None] * np.linalg.inv(tail) * weight[None, :]
        top = float(sla.eigvalsh(dense)[-1])
        assert abs(value - top) <= 1e-10
        assert bounds[key] >= value
    assert details["weighted_resolvent_norm_max"] == max(norms.values())


def test_pullthrough_builds_each_ladder_operator_once(ref_workspaces, monkeypatch):
    """Each level builds the ladder operator of every sampled mode once:
    two creators, or two annihilators, per level on the reference grid."""
    for kind in ("creator", "annihilator"):
        built = []
        original = getattr(pl.fock, kind)

        def counting(basis, mode, original=original):
            built.append((basis.nmax, mode))
            return original(basis, mode)

        with monkeypatch.context() as patch:
            patch.setattr(pl.fock, kind, counting)
            verify_pullthrough(ref_workspaces, kind)
        assert len(built) == len(set(built)) == 6, kind


def test_pullthrough_local_form_builds_each_matrix_once(ref_workspaces, monkeypatch):
    """The local form builds each ``(level, restriction, k, shift)`` matrix
    once: X and two Y(k) per protected level for the creator, two Y(k) and
    two Z(k+l) for the annihilator, on levels 3 and 4 of the reference grid.
    Resolvent handles take their shared ``Phi`` and derive their diagonal on
    each solve, not from this matrix, so the count holds on a first run as
    on a rerun."""
    for kind, distinct in (("creator", 6), ("annihilator", 8)):
        built = []
        original = ReductionWorkspace.restricted_matrix

        def counting(ws, restriction, k, shift, original=original):
            built.append((ws.basis.nmax, restriction, np.asarray(k).tobytes(), shift))
            return original(ws, restriction, k, shift)

        with monkeypatch.context() as patch:
            patch.setattr(ReductionWorkspace, "restricted_matrix", counting)
            verify_pullthrough(ref_workspaces, kind)
        assert len(built) == len(set(built)) == distinct, kind


def test_equivalence_report_empty_window(ref_workspaces):
    ws = ref_workspaces[3]
    report = pl.schur_equivalence_report(ws)
    assert report["consistent"] is True
    # the gap of this instance exceeds the window: nothing to match
    assert report["window_eigenvalues"] == []
    assert report["crossings"] == []
    assert all(row["consistent"] for row in report["grid"])
    assert all(row["predicted_below"] == 1 for row in report["grid"])
    # away from fiber eigenvalues the Schur complement stays invertible
    assert np.min(np.abs(sla.eigvalsh(ws.one_particle_operator(0.5)))) > 1e-4


def test_equivalence_report_populated_window(shifted_workspace):
    """At each fiber eigenvalue inside the window the one-boson Schur
    complement is singular, and the window is the dense spectrum's."""
    ws = shifted_workspace
    report = pl.schur_equivalence_report(ws)
    assert report["consistent"] is True
    fiber = np.linalg.eigvalsh(ws.hamiltonian.toarray())
    dense_window = fiber[(fiber > ws.e0 + 1e-12) & (fiber < ws.e0 + 1.0)]
    assert len(dense_window) == 3  # this instance was tuned to have three
    assert np.allclose(report["window_eigenvalues"], dense_window, rtol=0, atol=1e-10)
    assert len(report["crossings"]) == 3
    energies = [probe["energy"] for probe in report["spectrum_to_kernel"]]
    assert energies == sorted(energies)
    for probe in report["spectrum_to_kernel"]:
        assert probe["matched"]
        assert probe["min_abs_eigenvalue"] <= 1e-8
    _assert_offsets_bracketed(report)


def _assert_offsets_bracketed(report):
    """Every direct offset lies inside a matched bracket."""
    direct = [p["eps"] for p in report["spectrum_to_kernel"]]
    for eps in direct:
        (bracket,) = [c for c in report["crossings"] if c["eps_lo"] < eps < c["eps_hi"]]
        assert bracket["matched"] and bracket["kernel_drop"] == bracket["fiber_count"]
    assert sum(c["fiber_count"] for c in report["crossings"]) == len(direct)


def test_crossing_locator_on_synthetic_kernel():
    """``O(eps) = diag(eps - r_i)`` plus a vacuum-pole eigenvalue that turns
    negative past the pole, so the count drops only at the roots.  A simple
    root, a double root (offsets 5e-7 apart), a root beside the pole and one
    whose bracket holds the pole are matched; a second root inside the
    bracket of 0.33, and the offset 0.75 with no root, are not."""
    pole = 0.43
    beside = pole + 0.5 * BRACKET_DELTA
    roots = np.array([0.23, 0.33, 0.33 + 0.4 * BRACKET_DELTA, beside, 0.47, 0.61, 0.61])
    offsets = [0.61, 0.23, 0.47, 0.33, beside, 0.75, 0.61 + 0.5 * BRACKET_DELTA]
    points = []

    def evaluate(eps):
        points.append(eps)
        return np.sort(np.append(eps - roots, 0.01 / (pole - eps)))

    crossings = _bracket_crossings(evaluate, pole, offsets)
    assert len(points) == 2 * len(crossings)
    expected = [  # (lowest offset, fiber count, kernel drop, matched)
        (0.23, 1, 1, True),
        (0.33, 1, 2, False),
        (beside, 1, 1, True),
        (0.47, 1, 1, True),
        (0.61, 2, 2, True),
        (0.75, 1, 0, False),
    ]
    assert [(c["fiber_count"], c["kernel_drop"], c["matched"]) for c in crossings] == [
        row[1:] for row in expected
    ]
    for c, (low, *_) in zip(crossings, expected):
        assert c["eps_lo"] == pytest.approx(low - BRACKET_DELTA, rel=0, abs=1e-15)
    assert crossings[2]["eps_lo"] < pole < crossings[2]["eps_hi"]
    assert crossings[4]["eps_hi"] == pytest.approx(0.61 + 1.5 * BRACKET_DELTA, rel=0, abs=1e-15)
    assert _bracket_crossings(evaluate, pole, []) == []


@pytest.mark.parametrize("dense_threshold", [500, 10])
def test_crossings_pinned_by_few_kernel_points(
    shifted_workspace, dense_threshold, monkeypatch, caplog
):
    """The kernel is evaluated at the 9 grid points, once per window
    eigenvalue and twice per bracket; each bracket logs one DEBUG event with
    its ends and its drop."""
    shifted = shifted_workspace
    cfg = pl.SolverConfig(dense_threshold=dense_threshold)
    ws = pl.build_workspace(shifted.grid, shifted.ff, 2, config=cfg, xi=shifted.xi)
    calls = []
    d_kernel = ReductionWorkspace.d_kernel

    def counting_d_kernel(self, eps=0.0):
        calls.append(eps)
        return d_kernel(self, eps)

    monkeypatch.setattr(ReductionWorkspace, "d_kernel", counting_d_kernel)
    with caplog.at_level(logging.DEBUG, logger="polaronlab"):
        report = pl.schur_equivalence_report(ws)
    crossings = report["crossings"]
    assert len(crossings) == 3
    assert len(calls) == len(EPSILON_GRID) + len(report["window_eigenvalues"]) + 2 * len(crossings)
    _assert_offsets_bracketed(report)
    logged = [
        re.search(r"\[(.*), (.*)\]: kernel count drops by (\d+)", r.getMessage()).groups()
        for r in caplog.records
        if r.name == "polaronlab" and r.getMessage().startswith("crossing bracket")
    ]
    assert [(float(lo), float(hi), int(drop)) for lo, hi, drop in logged] == [
        (c["eps_lo"], c["eps_hi"], c["kernel_drop"]) for c in crossings
    ]
    assert logging.getLogger("polaronlab").handlers == []


def _dense_handles(monkeypatch):
    """Every resolvent handle solves by a dense LU of its matrix, built from
    ``restricted_matrix``, in place of PCG."""
    handle = ReductionWorkspace._handle

    def dense_handle(ws, kind, k, shift):
        h = handle(ws, kind, k, shift)
        if "solve" not in vars(h.solver):
            dense = ws.restricted_matrix(h.kind, h.k, h.shift).toarray()
            h.solver.solve = lambda rhs: np.linalg.solve(dense, np.asarray(rhs, float))
        return h

    monkeypatch.setattr(ReductionWorkspace, "_handle", dense_handle)


def test_artifacts_survive_a_solver_change(shifted_workspace, ref_grid, monkeypatch):
    """Dense solves in place of PCG leave the shifted report's crossings and
    the written ``hessian_rel`` of the froehlich reference config exact."""
    shifted = shifted_workspace
    froehlich = pl.sample_form_factor(ref_grid, "froehlich", 0.1, alpha=0.5)

    def outputs():
        ws = pl.build_workspace(shifted.grid, shifted.ff, 2, xi=shifted.xi)
        report = verify_energy_derivatives(pl.build_workspace(ref_grid, froehlich, 4))
        return pl.schur_equivalence_report(ws)["crossings"], report.residuals["hessian_rel"]

    pcg = outputs()
    _dense_handles(monkeypatch)
    assert outputs() == pcg
    assert pcg[0] and pcg[1][0] > 0


def test_suite_reuses_prebuilt_workspaces(ref_workspaces):
    reports = pl.run_suite(ref_workspaces, only=["vacuum-schur", "norm-identity"])
    by_name = {r.identity: r for r in reports}
    assert by_name["vacuum-schur"].passed is True
    assert by_name["norm-identity"].passed is True
    # frozen reference: the top-level pairing residual of this instance
    assert by_name["norm-identity"].residuals["pairing"][0] == pytest.approx(
        1.950e-4, rel=0.05
    )


def test_energy_derivatives_symmetry_zero_component():
    """On a d=2 grid at xi=0 the probe gradient's y-component vanishes by
    symmetry; its rounding noise must not fail the finite-difference check."""
    grid = pl.build_grid(2, 1.0, 0.5)
    ws = pl.build_workspace(grid, pl.sample_form_factor(grid, "gaussian", 0.05), 2)
    report = verify_energy_derivatives(ws)
    assert report.residuals["gradient_rel"][0] <= 1e-7
    assert report.passed is True


def test_sparse_paths_pass_reference_suite(ref_grid, ref_ff, shifted_workspace):
    """The identity suite and the spectral correspondence with every solve
    forced onto the sparse paths: on the reference instance, and on the
    shifted instance whose window holds three fiber eigenvalues."""
    cfg = pl.SolverConfig(dense_threshold=10)
    workspaces = {n: pl.build_workspace(ref_grid, ref_ff, n, config=cfg) for n in LEVELS}
    reports = pl.run_suite(workspaces)
    assert [r.identity for r in reports if not r.passed] == []
    assert pl.schur_equivalence_report(workspaces[4])["consistent"] is True
    shifted = shifted_workspace
    sparse_ws = pl.build_workspace(shifted.grid, shifted.ff, 2, config=cfg, xi=shifted.xi)
    sparse = pl.schur_equivalence_report(sparse_ws)
    dense = pl.schur_equivalence_report(shifted)
    assert sparse["consistent"] is True
    assert np.allclose(sparse["window_eigenvalues"], dense["window_eigenvalues"], rtol=0, atol=1e-10)


def test_window_builds_no_handle_factor(caplog):
    """Every X(eps) handle of the spectral correspondence, the window's and
    the grid's alike, is certified as an M-matrix in the sign gauge, so the
    report builds no factor for a resolvent handle."""
    grid = pl.build_grid(2, 1.0, 0.5)
    ff = pl.sample_form_factor(grid, "constant", 0.1)
    cfg = pl.SolverConfig(dense_threshold=10)
    ws = pl.build_workspace(grid, ff, 2, config=cfg, xi=[0.6, 0.0])
    with caplog.at_level(logging.DEBUG, logger="polaronlab"):
        report = pl.schur_equivalence_report(ws)
    assert len(report["window_eigenvalues"]) >= 2
    events = [r.getMessage() for r in caplog.records]
    handles = [e for e in events if e.startswith(TAIL_TWO)]
    assert handles and all(e.endswith(" by m-matrix") for e in handles)
    assert [e for e in events if e.startswith("factor ") and " resolvent " in e] == []


def test_handles_count_every_solved_column(ref_grid, ref_ff, monkeypatch):
    """Every right-hand side solved against a resolvent handle is counted by
    that handle's ``solves``, single vectors and column blocks alike."""
    solved = [0]
    solve = SpdSolver.solve

    def counting_solve(self, rhs):
        solved[0] += 1 if np.ndim(rhs) == 1 else np.shape(rhs)[1]
        return solve(self, rhs)

    monkeypatch.setattr(SpdSolver, "solve", counting_solve)
    workspaces = {n: pl.build_workspace(ref_grid, ref_ff, n) for n in LEVELS}
    pl.run_suite(workspaces)
    counted = sum(h.solves for ws in workspaces.values() for h in ws._handles.values())
    assert solved[0] > 0 and counted == solved[0]
