"""Acceptance gate: ten numbered criteria, one test (and one line) each.

Reference instance: one dimension, momentum cutoff 2.0, spacing 0.5
(eight modes), gaussian form factor, truncation ladder 2/3/4.  Module
fixtures share the expensive factorizations across criteria; every
threshold is asserted explicitly in the criterion that owns it.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

import polaronlab as pl
from polaronlab import cli

LADDER = (2, 3, 4)
COUPLINGS = (0.0, 0.05, 0.1, 0.2)
FLOOR = 1e-13  # residual ladders count as converged once they hit this


def _announce(num, name, ok, detail):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name:<34} {state}  {detail}")


def _decreasing(values):
    pairs = zip(values, values[1:])
    return all(b < a or b <= FLOOR for a, b in pairs)


def _flat(residuals):
    if isinstance(residuals, dict):
        vals = [v for fam in residuals.values() for v in fam]
    else:
        vals = list(residuals)
    return [v for v in vals if v is not None]


@pytest.fixture(scope="module")
def solver():
    return pl.SolverConfig()


@pytest.fixture(scope="module")
def grid():
    return pl.build_grid(1, 2.0, 0.5)


@pytest.fixture(scope="module")
def workspaces(grid, solver):
    ff = pl.sample_form_factor(grid, "gaussian", 0.1)
    return {n: pl.build_workspace(grid, ff, n, config=solver) for n in LADDER}


@pytest.fixture(scope="module")
def bundles(workspaces):
    return {n: ws.build_bundle() for n, ws in workspaces.items()}


@pytest.fixture(scope="module")
def suite(workspaces):
    return pl.run_suite(workspaces)


@pytest.fixture(scope="module")
def coupling_workspaces(grid, workspaces, solver):
    """Top-level (nmax=4) workspaces across the coupling ladder."""
    out = {0.1: workspaces[4]}
    for g in (0.0, 0.05, 0.2):
        ff = pl.sample_form_factor(grid, "gaussian", g)
        out[g] = pl.build_workspace(grid, ff, 4, config=solver)
    return out


@pytest.fixture(scope="module")
def coupling_bundles(coupling_workspaces):
    return {g: ws.build_bundle() for g, ws in coupling_workspaces.items()}


def _report(suite, identity):
    matches = [r for r in suite if r.identity == identity]
    assert len(matches) == 1
    return matches[0]


def test_criterion_01_free_theory(grid, solver):
    started = time.perf_counter()
    ff = pl.sample_form_factor(grid, "gaussian", 0.0)
    basis = pl.enumerate_basis(grid.size, 4)
    ham = pl.assemble_hamiltonian(basis, grid, ff).matrix
    symmetry = pl.fock.symmetry(basis, grid, ff)
    summary = pl.spectrum_summary(ham, symmetry, 6, solver, 0.1)
    e0 = summary["eigenvalues"][0]
    below = summary["count_below_window"]
    elapsed = time.perf_counter() - started
    ok = (
        abs(e0) <= 1e-12
        and below == 1
        and abs(summary["nu1"] - grid.h**2) <= 1e-12
        and abs(summary["nu2"] - 1.0) <= 1e-12
        and elapsed < 1.0
    )
    _announce(1, "free-theory spectrum", ok, f"e0={e0:.2e} nu2={summary['nu2']:.12f} t={elapsed:.2f}s")
    assert abs(e0) <= 1e-12
    assert below == 1
    assert abs(summary["nu1"] - grid.h**2) <= 1e-12
    assert abs(summary["nu2"] - 1.0) <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_vacuum_schur_fixed_point(workspaces):
    gaps = {n: ws.schur_gap for n, ws in workspaces.items()}
    worst = max(gaps.values())
    ok = worst <= 1e-8
    _announce(2, "vacuum Schur fixed point", ok, f"max gap={worst:.3e}")
    for n, gap in gaps.items():
        assert gap <= 1e-8, f"nmax={n}: {gap:.3e}"


def test_criterion_03_spectral_equivalence(workspaces, solver):
    started = time.perf_counter()
    plain = pl.schur_equivalence_report(workspaces[3])
    shifted_ws = pl.build_workspace(
        pl.build_grid(1, 1.0, 0.25),
        pl.sample_form_factor(pl.build_grid(1, 1.0, 0.25), "gaussian", 0.05),
        2,
        config=solver,
        xi=[0.45],
    )
    shifted = pl.schur_equivalence_report(shifted_ws)
    elapsed = time.perf_counter() - started

    worst_kernel = max(
        (m["min_abs_eigenvalue"] for m in shifted["spectrum_to_kernel"]), default=0.0
    )
    ok = (
        plain["consistent"]
        and shifted["consistent"]
        and len(shifted["window_eigenvalues"]) == 3
        and worst_kernel <= 1e-7
        and elapsed < 60.0
    )
    _announce(3, "spectral equivalence", ok, f"kernel={worst_kernel:.2e} t={elapsed:.1f}s")
    assert plain["consistent"] is True
    assert plain["window_eigenvalues"] == []
    assert all(row["predicted_below"] == 1 for row in plain["grid"])
    assert shifted["consistent"] is True
    assert len(shifted["window_eigenvalues"]) == 3
    assert all(m["matched"] for m in shifted["spectrum_to_kernel"])
    assert worst_kernel <= 1e-7
    assert all(c["matched"] for c in shifted["crossings"])
    assert elapsed < 60.0


def test_criterion_04_exact_identities(suite):
    exact = [r for r in suite if r.classification == "exact"]
    assert exact, "suite produced no exact-class reports"
    worst = max(max(_flat(r.residuals), default=0.0) for r in exact)
    ok = worst <= 1e-9 and all(r.passed is True for r in exact)
    _announce(4, "exact operator identities", ok, f"{len(exact)} identities, max={worst:.2e}")
    for r in exact:
        assert r.passed is True, r.identity
        for value in _flat(r.residuals):
            assert value <= 1e-9, f"{r.identity}: {value:.3e}"


def test_criterion_05_truncation_ladders(suite):
    limited = [r for r in suite if r.classification == "truncation-limited"]
    assert limited, "suite produced no truncation-limited reports"
    ok = True
    protected_worst = 0.0
    for r in limited:
        ok = ok and (r.passed is True) and _decreasing([v for v in r.summary if v is not None])
        if isinstance(r.residuals, dict) and "protected" in r.residuals:
            present = [v for v in r.residuals["protected"] if v is not None]
            protected_worst = max(protected_worst, max(present, default=0.0))
            ok = ok and all(v <= 1e-8 for v in present)
    _announce(5, "truncation ladders shrink", ok, f"{len(limited)} ladders, protected max={protected_worst:.2e}")
    for r in limited:
        assert r.passed is True, r.identity
        ladder = [v for v in r.summary if v is not None]
        assert _decreasing(ladder), f"{r.identity}: {ladder}"
        if isinstance(r.residuals, dict) and "protected" in r.residuals:
            for v in r.residuals["protected"]:
                assert v is None or v <= 1e-8, f"{r.identity}: protected {v:.3e}"


def test_criterion_06_norm_identity(suite, coupling_bundles):
    report = _report(suite, "norm-identity")
    pairing = report.residuals["pairing"]
    gaps = {g: abs(1.0 - coupling_bundles[g].phi_norm) for g in (0.05, 0.1, 0.2)}
    ok = (
        report.passed is True
        and pairing[-1] <= 1e-2
        and _decreasing(pairing)
        and gaps[0.2] > gaps[0.1] > gaps[0.05]
    )
    _announce(6, "central norm identity", ok, f"top residual={pairing[-1]:.2e}")
    assert report.passed is True
    assert pairing[-1] <= 1e-2
    assert _decreasing(pairing)
    assert gaps[0.2] > gaps[0.1] > gaps[0.05], gaps


def test_criterion_07_energy_derivatives(suite, coupling_workspaces):
    report = _report(suite, "energy-derivatives")
    grad = report.residuals["gradient_rel"][0]
    origin = report.residuals["gradient_at_origin"][0]
    hess = report.residuals["hessian_rel"][0]

    details = {0.1: report.details}
    for g in (0.05, 0.2):
        extra = pl.verify_energy_derivatives(coupling_workspaces[g])
        assert extra.passed is True
        details[g] = extra.details
    quad = {g: d["quadratic_ratio"] for g, d in details.items()}
    quad_spread = max(quad.values()) / min(quad.values())
    c0_ratio = details[0.05]["c0_gap_over_g4"] / details[0.1]["c0_gap_over_g4"]

    ok = (
        report.passed is True
        and grad <= 1e-5
        and origin <= 1e-8
        and hess <= 1e-4
        and quad_spread < 2.0
        and 0.5 < c0_ratio < 2.0
    )
    _announce(7, "energy-curve derivatives", ok, f"grad={grad:.2e} quad spread={quad_spread:.3f}")
    assert report.passed is True
    assert grad <= 1e-5
    assert origin <= 1e-8
    assert hess <= 1e-4
    assert quad_spread < 2.0, quad
    assert 0.5 < c0_ratio < 2.0, c0_ratio


def test_criterion_08_coupling_scan(coupling_workspaces, coupling_bundles, solver):
    started = time.perf_counter()
    rows = {}
    for g in COUPLINGS:
        ws = coupling_workspaces[g]
        summary = pl.spectrum_summary(ws.hamiltonian, ws.symmetry, 4, solver, 1e-6)
        rows[g] = {"e0": ws.e0, "nu2": summary["nu2"], "count": summary["count_below_window"]}
    elapsed = time.perf_counter() - started
    energies = [rows[g]["e0"] for g in COUPLINGS]
    ok = (
        all(r["count"] == 1 and r["e0"] > -1.0 and r["nu2"] > 0.0 for r in rows.values())
        and all(b <= a for a, b in zip(energies, energies[1:]))
        and all(coupling_bundles[g].c0 > 0 for g in COUPLINGS if g > 0)
        and all(coupling_bundles[g].a_norm < 1 for g in COUPLINGS if g > 0)
        and elapsed < 1800.0
    )
    _announce(8, "coupling scan sanity", ok, f"e0 range [{energies[-1]:.4f}, {energies[0]:.4f}]")
    for g in COUPLINGS:
        row = rows[g]
        assert row["count"] == 1, (g, row)
        assert row["e0"] > -1.0, (g, row)
        assert row["nu2"] > 0.0, (g, row)
        if g > 0:
            assert coupling_bundles[g].c0 > 0, g
            assert coupling_bundles[g].a_norm < 1, g
    assert all(b <= a for a, b in zip(energies, energies[1:])), energies
    assert elapsed < 1800.0


def test_criterion_09_regularized_limit(workspaces, bundles, solver):
    started = time.perf_counter()
    # On a coarse grid the smallest momentum dwarfs the final regularization,
    # so the weighted infimum saturates at the rank-one-lifted bottom instead
    # of descending to the reduced operator's own infimum.
    coarse = bundles[4].bs_limit_check()
    assert coarse["infrared_resolved"] is False
    b4 = bundles[4]
    u = b4.phi + np.sqrt(b4.c0) * b4.v / b4.mode_norms
    lifted = float(np.linalg.eigvalsh(b4.smat + np.outer(u, u))[0])
    assert abs(coarse["values"][-1] - lifted) <= 5e-2

    # The limit statement itself needs the infrared resolved, the smallest
    # momentum squared below the final regularization, as ``bs_limit``'s
    # ``infrared_resolved`` flag says: every mode of this instance lies deep
    # below the scale where the amplitude-to-momentum ratio would be
    # square-summable, and the smallest momentum squared (1/256)^2 sits far
    # under the final regularization 1e-3.
    grid = pl.build_grid(1, 0.125, 1.0 / 256.0)
    ff = pl.sample_form_factor(grid, "gaussian", 0.1)
    ws = pl.build_workspace(grid, ff, 2, config=solver)
    check = ws.build_bundle().bs_limit_check()
    elapsed = time.perf_counter() - started
    assert check["min_mode_norm"] == pytest.approx(1.0 / 256.0, rel=1e-12)
    assert check["infrared_resolved"] is True

    gap = check["final_gap"]
    ok = gap is not None and gap <= 5e-2 and elapsed < 600.0
    _announce(9, "regularized kernel limit", ok, f"gap={gap:.3e} t={elapsed:.1f}s")
    assert check["s_min_eigenvalue"] is not None
    assert gap is not None
    assert gap <= 5e-2
    # every ladder value stays within the tolerance of the target
    for value in check["values"]:
        assert abs(value - check["s_min_eigenvalue"]) <= 5e-2, check["values"]
    assert elapsed < 600.0


def test_criterion_10_deterministic_artifacts(tmp_path):
    config = {
        "grid": {"d": 1, "K": 1.0, "h": 1.0},
        "form_factor": {"profile": "gaussian", "g": 0.2},
        "nmax": [2, 3],
        "scan": {"couplings": [0.0, 0.1]},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))

    def tree_digest(root):
        digest = hashlib.sha256()
        for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
        return digest.hexdigest()

    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["scan", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["scan", "--config", str(cfg), "--out", str(out2)]) == 0
    ok = tree_digest(out1) == tree_digest(out2)
    _announce(10, "deterministic artifacts", ok, "scan reruns byte-identical")
    assert ok
