"""Schur reduction workspace against dense numpy oracles."""

import gc
import logging
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import polaronlab as pl
from polaronlab import ConfigError, IndefiniteOperatorError, SolverConfig
from polaronlab.reduction import BS_LADDER, FULL, TAIL_ONE, TAIL_TWO
from polaronlab.spectral import LIN_TOL, _gershgorin_lower

import oracles


@pytest.fixture(scope="module")
def tiny():
    """2 modes, 3 bosons, strong-ish coupling; everything dense-oracled."""
    grid = pl.build_grid(1, 1.0, 1.0)
    ff = pl.sample_form_factor(grid, "gaussian", 0.3)
    ws = pl.build_workspace(grid, ff, 3)
    occs = oracles.occupations(grid.size, 3)
    ham = oracles.dense_hamiltonian(occs, grid.modes, ff.values)
    e0 = float(np.linalg.eigvalsh(ham)[0])
    return grid, ff, ws, occs, e0


def _oracle_y_on_v(grid, ff, occs, e0, k):
    """Dense ((P+k)^2 + field + N - e0)^{-1} |v> on the >= 1 tail."""
    ham_k = oracles.dense_hamiltonian(occs, grid.modes, ff.values, shift=k)
    idx1 = oracles.tail_indices(occs, 1)
    yinv = oracles.dense_masked_inverse(ham_k, idx1, offset=-e0)
    v_vec = np.zeros(len(occs))
    for j in range(grid.size):
        occ = [0] * grid.size
        occ[j] = 1
        v_vec[occs.index(tuple(occ))] = ff.values[j]
    return yinv @ v_vec, v_vec


def test_workspace_needs_two_sectors(small_grid, small_ff):
    with pytest.raises(ConfigError):
        pl.build_workspace(small_grid, small_ff, 1)


def test_ground_energy_matches_oracle(tiny):
    grid, ff, ws, occs, e0 = tiny
    assert ws.e0 == pytest.approx(e0, abs=1e-12)


def test_vacuum_schur_fixed_point_and_monotonicity(ref_workspaces):
    for ws in ref_workspaces.values():
        ladder = [ws.vacuum_schur(eps) for eps in (0.5, 1.0, 1.5)]
        assert ladder[0] > ladder[1] > ladder[2] > 0
        # at offset 1 the Schur scalar returns the ground energy
        assert abs(ws.e0 - ws.vacuum_kinetic() + ws.vacuum_schur(1.0)) <= 1e-10
        assert ws.schur_gap <= 1e-10


def test_energy_curve_at_origin_is_e0(ref_workspaces):
    ws = ref_workspaces[3]
    assert ws.energy_curve(np.zeros(1)) == pytest.approx(ws.e0, abs=1e-11)


def test_y_application_matches_oracle(tiny):
    grid, ff, ws, occs, e0 = tiny
    perm = oracles.permutation_into(occs, ws.basis)
    for k in (np.array([1.0]), np.array([-1.0]), np.zeros(1)):
        ours = ws.y_on_v(k)
        ref, _ = _oracle_y_on_v(grid, ff, occs, e0, k)
        ref_aligned = np.zeros(ws.basis.dim)
        ref_aligned[perm] = ref
        assert np.allclose(ours, ref_aligned, rtol=0, atol=1e-11)
        # cache returns the same array object on repeat
        assert ws.y_on_v(k) is ours


def test_d_kernel_matches_oracle(tiny):
    grid, ff, ws, occs, e0 = tiny
    idx2 = oracles.tail_indices(occs, 2)
    v_vec = _oracle_y_on_v(grid, ff, occs, e0, np.zeros(1))[1]
    ham = oracles.dense_hamiltonian(occs, grid.modes, ff.values)
    for eps in (0.0, 0.3):
        xinv = oracles.dense_masked_inverse(ham, idx2, offset=eps - 1.0 - e0)
        m = grid.size
        ref = np.empty((m, m))
        raised = [oracles.dense_creator(occs, j) @ v_vec for j in range(m)]
        for a in range(m):
            for b in range(m):
                ref[a, b] = raised[a] @ xinv @ raised[b]
        ours = ws.d_kernel(eps)
        assert np.allclose(ours, ref, rtol=0, atol=1e-11)
        assert np.allclose(ours, ours.T, rtol=0, atol=1e-13)


def test_workspace_hamiltonian_is_the_assembled_matrix(ref_workspaces, shifted_workspace):
    """``spectrum`` reads ``assemble_hamiltonian`` and ``verify`` the
    workspace: both must hold the same CSR arrays, bit for bit."""
    for ws in [*ref_workspaces.values(), shifted_workspace]:
        ham = pl.assemble_hamiltonian(ws.basis, ws.grid, ws.ff, xi=ws.xi).matrix
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(ws.hamiltonian, name), getattr(ham, name)), name


def test_sparse_d_kernel_reuses_raised_block(monkeypatch):
    """On the sparse path the raised vectors ``a_j^+ |v>`` are built once per
    workspace, from one creator per mode orbit, and serve every ``eps``; the
    kernels match the dense path."""
    grid = pl.build_grid(2, 1.0, 1.0)
    ff = pl.sample_form_factor(grid, "gaussian", 0.2)
    dense = pl.build_workspace(grid, ff, 4)  # dim 495, eight modes
    refs = {eps: dense.d_kernel(eps) for eps in (0.0, 0.3)}
    sparse = pl.build_workspace(grid, ff, 4, config=SolverConfig(dense_threshold=10))
    built = []
    creator = pl.fock.creator

    def counting_creator(basis, mode):
        built.append(mode)
        return creator(basis, mode)

    monkeypatch.setattr(pl.fock, "creator", counting_creator)
    for eps, ref in refs.items():
        assert np.allclose(sparse.d_kernel(eps), ref, rtol=0, atol=1e-10)
    orbits = {tuple(sorted(set(perm))) for perm in sparse.symmetry.mode_perms.T.tolist()}
    assert built == sorted(min(orbit) for orbit in orbits)
    assert len(built) == 2  # (+-1, 0) and (+-1, +-1) up to the point group


def test_x_handles_certified_as_m_matrices(monkeypatch, caplog):
    """Every X(eps) handle is certified on its own, as an M-matrix in the
    workspace's sign gauge, whatever handles came before it: no factor is
    built, although Gershgorin fails on this tail.  Its solve is the dense
    solve, and an indefinite handle still raises naming its negative
    count."""
    grid = pl.build_grid(1, 1.0, 0.5)
    ff = pl.sample_form_factor(grid, "constant", 0.4)
    ws = pl.build_workspace(grid, ff, 3, config=SolverConfig(dense_threshold=10), xi=[0.45])
    factors = []
    factor = pl.spectral.SymmetricFactor

    def counting_factor(*args, **kwargs):
        factors.append(args[1])
        return factor(*args, **kwargs)

    monkeypatch.setattr(pl.spectral, "SymmetricFactor", counting_factor)

    def certify(eps):
        factors.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="polaronlab"):
            handle = ws.x_handle(eps)
        [event] = [r.getMessage() for r in caplog.records if r.name == "polaronlab"]
        return handle, event.rsplit(" ", 1)[1], len(factors)

    for eps in (0.1, 0.3, 0.05, 0.07):
        handle, certificate, built = certify(eps)
        assert (certificate, built) == ("m-matrix", 0)
        assert _gershgorin_lower(ws.restricted_matrix(TAIL_TWO, np.zeros(1), handle.shift)) <= 0
    tail = ws.restricted_matrix(TAIL_TWO, np.zeros(1), handle.shift).toarray()
    rhs = np.linspace(-1.0, 1.0, tail.shape[0])
    assert np.allclose(handle.solve(rhs), np.linalg.solve(tail, rhs), rtol=0, atol=1e-10)
    vals = np.linalg.eigvalsh(ws.restricted_matrix(TAIL_TWO, np.zeros(1), 0.0).toarray())
    shift = -0.5 * (vals[1] + vals[2])
    with pytest.raises(IndefiniteOperatorError, match=" has 2 negative eigenvalues$"):
        ws._handle(TAIL_TWO, np.zeros(1), shift)


def _signed_instance(d, magnitudes, flips, nmax, xi=None, config=None):
    """Workspace on a small d=1 or d=2 grid whose form factor, built
    directly, has the drawn magnitudes with the drawn signs."""
    grid = pl.build_grid(d, 1.0, 0.5 if d == 1 else 1.0)
    values = np.array(magnitudes[: grid.size]) * np.where(flips[: grid.size], -1.0, 1.0)
    ff = pl.FormFactor(profile="constant", g=1.0, alpha=0.0, values=values)
    return pl.build_workspace(grid, ff, nmax, config=config, xi=xi)


_SIGNED = dict(
    shape=st.sampled_from([(1, None), (2, None), (2, (0.6, 0.0))]),
    magnitudes=st.lists(st.sampled_from([0.0, 0.05, 0.2, 0.4]), min_size=8, max_size=8),
    flips=st.lists(st.booleans(), min_size=8, max_size=8),
    kind=st.sampled_from([FULL, TAIL_ONE, TAIL_TWO]),
    k=st.floats(-1.5, 1.5),
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**_SIGNED, nmax=st.sampled_from([2, 3]), shift=st.floats(-5.0, 5.0))
def test_sign_gauge_makes_every_handle_matrix_a_z_matrix(
    shape, magnitudes, flips, kind, k, nmax, shift
):
    """Under ``fock.sign_gauge`` the fiber Hamiltonian and every restricted
    matrix, at any momentum and shift, have no positive off-diagonal entry
    (d=1, 2, mixed-sign amplitudes, with and without a fiber shift)."""
    d, xi = shape
    ws = _signed_instance(d, magnitudes, flips, nmax, xi=xi)
    signs = pl.fock.sign_gauge(ws.basis, ws.ff)
    start = {FULL: 0, TAIL_ONE: ws.start1, TAIL_TWO: ws.start2}[kind]
    ham = pl.assemble_hamiltonian(ws.basis, ws.grid, ws.ff, xi=xi).matrix
    restricted = ws.restricted_matrix(kind, np.full(d, k), shift)
    for mat, s in ((ham, signs), (restricted, signs[start:])):
        gauged = (sp.diags(s) @ mat @ sp.diags(s)).toarray()
        np.fill_diagonal(gauged, 0.0)
        assert gauged.max() <= 0.0


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    **_SIGNED,
    margin=st.one_of(st.floats(-0.5, 0.5), st.sampled_from([1e-6, 2e-6, -1e-6])),
)
def test_handle_built_exactly_when_dense_definite(
    caplog, shape, magnitudes, flips, kind, k, margin
):
    """A resolvent handle above the dense threshold is built exactly when
    its matrix is positive definite by dense ``eigvalsh``; an indefinite one
    raises with the dense negative count, and one with a margin of at least
    1e-6 is certified as an M-matrix.  Draws within 1e-8 of singular are
    skipped."""
    d, xi = shape
    ws = _signed_instance(
        d, magnitudes, flips, 3 if d == 1 else 2, xi=xi, config=SolverConfig(dense_threshold=10)
    )
    momentum = np.full(d, k)
    # the drawn margin is the lowest eigenvalue of the handle matrix
    shift = margin - np.linalg.eigvalsh(ws.restricted_matrix(kind, momentum, 0.0).toarray())[0]
    vals = np.linalg.eigvalsh(ws.restricted_matrix(kind, momentum, shift).toarray())
    assume(np.min(np.abs(vals)) >= 1e-8)
    assert len(vals) > 10
    negative = int(np.sum(vals < 0.0))
    if negative:
        with pytest.raises(IndefiniteOperatorError, match=f" has {negative} negative eigenvalues$"):
            ws._handle(kind, momentum, shift)
        return
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="polaronlab"):
        ws._handle(kind, momentum, shift)
    [event] = [r.getMessage() for r in caplog.records if r.name == "polaronlab"]
    if margin >= 1e-6:
        assert event.endswith(" by m-matrix")


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(**_SIGNED, margin=st.floats(-0.5, 0.5))
def test_dense_handle_built_exactly_when_dense_definite(
    caplog, shape, magnitudes, flips, kind, k, margin
):
    """At the default threshold, below which the eigenvalue paths go dense,
    a resolvent handle is built exactly when its matrix is positive definite
    by dense ``eigvalsh``, and is certified as above the threshold: as an
    M-matrix when its margin is at least 1e-6; an indefinite one raises with
    the dense negative count.  Draws within 1e-8 of singular are skipped."""
    d, xi = shape
    ws = _signed_instance(d, magnitudes, flips, 3 if d == 1 else 2, xi=xi)
    momentum = np.full(d, k)
    shift = margin - np.linalg.eigvalsh(ws.restricted_matrix(kind, momentum, 0.0).toarray())[0]
    vals = np.linalg.eigvalsh(ws.restricted_matrix(kind, momentum, shift).toarray())
    assume(np.min(np.abs(vals)) >= 1e-8)
    assert len(vals) <= ws.config.dense_threshold
    negative = int(np.sum(vals < 0.0))
    if negative:
        with pytest.raises(IndefiniteOperatorError, match=f" has {negative} negative eigenvalues$"):
            ws._handle(kind, momentum, shift)
        return
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="polaronlab"):
        ws._handle(kind, momentum, shift)
    [event] = [r.getMessage() for r in caplog.records if r.name == "polaronlab"]
    assert re.search(f" dim {len(vals)} certified positive definite by (m-matrix|inertia)$", event)
    if margin >= 1e-6:
        assert event.endswith(" by m-matrix")


@pytest.mark.parametrize("d, K, k", [(1, 1.0, [0.25]), (2, 0.5, [0.25, -0.5])])
def test_handles_share_one_off_diagonal_per_restriction(d, K, k):
    """A sparse handle holds the workspace's one ``Phi`` on its restriction,
    shared by every handle there; ``restricted_matrix`` is that ``Phi`` plus
    a diagonal equal, bit for bit, to ``(P+k-xi)^2 + N + shift`` summed over
    the whole ``(dim, d)`` momentum array and sliced to the tail.  A solve
    matches the dense one."""
    grid = pl.build_grid(d, K, 0.5)
    ff = pl.sample_form_factor(grid, "gaussian", 0.2)
    ws = pl.build_workspace(grid, ff, 3, config=SolverConfig(dense_threshold=10))
    k = np.array(k)
    p = ws.p_state + (k - ws.xi)[None, :]
    kinetic = np.sum(p * p, axis=1)
    for kind, shift in ((FULL, 1.5 - ws.e0), (TAIL_ONE, 0.5 - ws.e0), (TAIL_TWO, -0.5 - ws.e0)):
        handles = [ws._handle(kind, k, shift), ws._handle(kind, -k, shift + 0.25)]
        assert handles[0].solver._off is handles[1].solver._off
        h = handles[0]
        matrix = ws.restricted_matrix(h.kind, h.k, h.shift)
        diag = kinetic[h.start :] + ws.basis.boson_counts()[h.start :] + shift
        assert np.array_equal(matrix.diagonal(), diag)
        assert (matrix - sp.diags(diag) != h.solver._off).nnz == 0
        rhs = np.linspace(-1.0, 1.0, h.solver.dim)
        exact = np.linalg.solve(matrix.toarray(), rhs)
        assert np.linalg.norm(h.solve(rhs) - exact) <= LIN_TOL * np.linalg.norm(exact)


def test_handles_hold_no_tail_vector(ref_workspaces, ref_bundles):
    """After the bundle and the whole suite on the reference workspaces, no
    handle and no handle's solver holds a vector of its tail's length: a
    solver keeps the workspace's shared ``Phi`` restriction and a call that
    derives the diagonal on each solve, from the workspace's own arrays
    and the handle's momentum."""
    pl.run_suite(ref_workspaces)
    for ws in ref_workspaces.values():
        assert ws._handles
        for h in ws._handles.values():
            assert h.solver._off is ws._off_diagonal(h.kind)
            held = [*vars(h).values(), *vars(h.solver).values(), *h.solver._diagonal.args]
            for value in held:
                if isinstance(value, np.ndarray):
                    shared = value is ws.p_state or value is ws.basis.sector_offsets
                    assert shared or value.shape == (ws.grid.d,)


def test_reference_handle_certified_without_a_factor(ref_grid, ref_ff, caplog, live_factors):
    """A ``Y(k)`` handle on the reference ``nmax`` 4 tail (dim 494) is
    certified as an M-matrix with no factor built, and holds only the
    workspace's shared ``Phi`` and its own diagonal; its vector and block
    solves are the dense solves.  The workspace's own trivial-block lists
    (dim about 250) may factor; the count starts after them."""
    ws = pl.build_workspace(ref_grid, ref_ff, 4)
    live_factors.built.clear()
    k = np.array([0.25])
    with caplog.at_level(logging.DEBUG, logger="polaronlab"):
        handle = ws._handle(TAIL_ONE, k, -ws.e0)
    [certificate] = [r.getMessage() for r in caplog.records if r.name == "polaronlab"]
    assert certificate.endswith(" dim 494 certified positive definite by m-matrix")
    assert live_factors.built == []
    assert handle.solver._off is ws._off_diagonal(TAIL_ONE)
    dense = ws.restricted_matrix(TAIL_ONE, k, -ws.e0).toarray()
    rhs = np.column_stack([np.linspace(-1.0, 1.0, 494), ws.v[ws.start1 :]])
    for b in (rhs[:, 1], rhs):
        exact = np.linalg.solve(dense, b)
        assert np.linalg.norm(handle.solve(b) - exact) <= LIN_TOL * np.linalg.norm(exact)


def test_no_handle_holds_a_factor(ref_grid, ref_ff, live_factors):
    """After ``build_bundle``, ``run_suite`` and ``schur_equivalence_report``
    on the reference ladder, no resolvent handle's solver references a
    ``SymmetricFactor``: every one of the 92 handles is certified as an
    M-matrix, so no handle builds a factor.  After the workspaces, whose
    trivial-block lists may factor, the factors built are the shift-invert
    lists of the ``nmax`` 4 bundle's two tail gaps (dims 254 and 250), then
    the equivalence report's list of the eigenvalues below ``e0 + 1``: each
    character block's count there, and the list of the one below it, in the
    trivial block (dims 255 and 240)."""
    workspaces = {n: pl.build_workspace(ref_grid, ref_ff, n) for n in (2, 3, 4)}
    live_factors.built.clear()
    assert [r.identity for r in pl.run_suite(workspaces) if not r.passed] == []
    assert pl.schur_equivalence_report(workspaces[4])["consistent"] is True
    handles = [h for ws in workspaces.values() for h in ws._handles.values()]
    assert len(handles) == 92
    for handle in handles:
        held = list(vars(handle.solver).values())
        held += gc.get_referents(*held)
        assert not [x for x in held if isinstance(x, pl.spectral.SymmetricFactor)]
    assert live_factors.built == ["shift-invert operator"] * 2 + [
        "eigenvalue list",
        "shift-invert operator",
        "eigenvalue list",
    ]


def test_c_kernel_matches_oracle(tiny):
    grid, ff, ws, occs, e0 = tiny
    idx2 = oracles.tail_indices(occs, 2)
    ham = oracles.dense_hamiltonian(occs, grid.modes, ff.values)
    xinv = oracles.dense_masked_inverse(ham, idx2, offset=-1.0 - e0)
    vac = np.zeros(len(occs))
    vac[occs.index((0, 0))] = 1.0
    counts = oracles.boson_counts(occs)

    def oracle_c(k, l):
        yk, _ = _oracle_y_on_v(grid, ff, occs, e0, k)
        yl, _ = _oracle_y_on_v(grid, ff, occs, e0, l)
        ham_s = oracles.dense_hamiltonian(occs, grid.modes, ff.values, shift=k + l)
        zinv = np.linalg.inv(ham_s + (1.0 - e0) * np.eye(len(occs)))
        w_k, w_l = vac - yk, vac - yl
        tail_k = np.where(counts >= 2, yk, 0.0)
        tail_l = np.where(counts >= 2, yl, 0.0)
        return 1.0 / (1.0 + e0) - w_k @ zinv @ w_l - tail_k @ xinv @ tail_l

    points = [np.zeros(1), np.array([-1.0]), np.array([1.0])]
    for k in points:
        for l in points:
            assert ws.c_kernel(k, l) == pytest.approx(oracle_c(k, l), abs=1e-11)


def test_c_matrix_consistent_with_pointwise(tiny):
    grid, ff, ws, occs, e0 = tiny
    cmat = ws.c_matrix()
    points = np.vstack([np.zeros((1, 1)), grid.modes])
    for i, k in enumerate(points):
        for j, l in enumerate(points):
            assert cmat[i, j] == pytest.approx(ws.c_kernel(k, l), abs=1e-12)
    assert np.allclose(cmat, cmat.T, rtol=0, atol=1e-12)


def test_lambda_direct_cross_paths(tiny):
    grid, ff, ws, occs, e0 = tiny
    for k in (np.zeros(1), np.array([1.0])):
        lam = ws.lambda_direct(k)
        via_c = 1.0 / (1.0 + ws.e0) - ws.c_kernel(k, np.zeros(1))
        assert lam == pytest.approx(via_c, abs=1e-12)


def test_one_particle_operator_offset_dominates(ref_workspaces):
    ws = ref_workspaces[3]
    base = ws.one_particle_operator(0.0)
    prev_min = float(sla.eigvalsh(base)[0])
    for eps in (0.2, 0.4, 0.6, 0.8):
        omat = ws.one_particle_operator(eps)
        # the offset adds at least eps (both correction terms help)
        gap = sla.eigvalsh(omat - base)[0]
        assert gap >= eps - 1e-12
        cur_min = float(sla.eigvalsh(omat)[0])
        assert cur_min > prev_min
        prev_min = cur_min


def test_schur_complement_vanishes_on_true_eigenvalues(shifted_workspace):
    """At a genuine fiber eigenvalue inside the spectral window the
    one-boson Schur complement must be singular."""
    ws = shifted_workspace
    fiber = np.linalg.eigvalsh(ws.hamiltonian.toarray())
    # the 1e-12 margin of the equivalence report's window keeps e0 out when
    # this eigvalsh and the workspace's eigensolver round it differently
    window = [float(E) for E in fiber if ws.e0 + 1e-12 < E < ws.e0 + 1.0 - 1e-6]
    assert len(window) == 3  # this instance was tuned to have three
    for energy in window:
        eps = ws.e0 + 1.0 - energy
        vals = sla.eigvalsh(ws.one_particle_operator(eps))
        assert np.min(np.abs(vals)) <= 1e-8


def test_excited_probe_negative_away_from_eigenvalues(ref_workspaces):
    ws = ref_workspaces[3]
    vals = sla.eigvalsh(ws.one_particle_operator(0.5))
    assert np.min(np.abs(vals)) > 1e-4
    with pytest.raises(ConfigError):
        ws.one_particle_operator(1.5)
    with pytest.raises(ConfigError):
        ws.one_particle_operator(-0.1)


def test_bundle_rejects_nonzero_fiber_shift(shifted_workspace):
    with pytest.raises(ConfigError):
        shifted_workspace.build_bundle()


def test_build_bundle_builds_once(small_grid, small_ff):
    """A second ``build_bundle`` returns the first call's object and solves
    nothing more."""
    ws = pl.build_workspace(small_grid, small_ff, 3)
    bundle = ws.build_bundle()
    solves = sum(h.solves for h in ws._handles.values())
    assert ws.build_bundle() is bundle
    assert sum(h.solves for h in ws._handles.values()) == solves


@pytest.mark.parametrize(
    "d, K, h, nmax, xi",
    [
        (1, 2.0, 0.5, 3, None),
        (1, 2.0, 0.5, 4, None),
        (2, 1.0, 0.5, 2, [0.6, 0.0]),
        (3, 1.0, 1.0, 2, None),  # 26 modes
    ],
)
def test_raising_part_matches_oracle(d, K, h, nmax, xi):
    """The strictly lower triangle of ``Phi`` is its raising half, as the
    oracle picks it out by boson count, and the two halves make up ``Phi``."""
    grid = pl.build_grid(d, K, h)
    ff = pl.sample_form_factor(grid, "gaussian", 0.2)
    ws = pl.build_workspace(grid, ff, nmax, xi=xi)
    occs = oracles.occupations(grid.size, nmax)
    perm = oracles.permutation_into(occs, ws.basis)
    expected = oracles.aligned(oracles.dense_raising(occs, ff.values), perm, ws.basis.dim)
    raising = ws.raising_part
    assert raising.format == "csr"
    assert np.allclose(raising.toarray(), expected, rtol=1e-15, atol=0)
    assert np.array_equal((raising != 0).toarray(), expected != 0)
    assert abs(raising + raising.T - ws.phi_op).max() == 0.0


def test_bundle_fields_and_assumptions(ref_workspaces, ref_bundles):
    ws, bundle = ref_workspaces[3], ref_bundles[3]
    m = ws.grid.size
    assert bundle.dmat.shape == (m, m)
    assert bundle.cmat_ext.shape == (m + 1, m + 1)
    assert bundle.c0 > 0
    assert bundle.phi is not None and bundle.smat is not None
    assert bundle.nu1 > 0 and bundle.nu2 > 0
    report = bundle.assumptions()
    assert report["all_hold"] is True
    assert report["contraction"] is True
    # norm of the compact part stays below 1 on this instance
    assert bundle.a_norm < 1.0


def test_free_coupling_bundle_degenerates(small_grid):
    ff0 = pl.sample_form_factor(small_grid, "gaussian", 0.0)
    ws = pl.build_workspace(small_grid, ff0, 3)
    bundle = ws.build_bundle()
    assert bundle.c0 == pytest.approx(0.0, abs=1e-14)
    assert bundle.phi is None and bundle.smat is None
    assert bundle.s_min_eigenvalue() is None
    report = bundle.assumptions()
    assert report["contraction"] is None  # no active coupling to contract
    assert report["all_hold"]
    # Birman-Schwinger weighting at zero coupling: diag(k^2/(k^2+eps)),
    # whose smallest entry is 1/(1 + eps) at |k| = 1
    bs = bundle.bs_limit_check()
    assert bs["eps_ladder"] == list(BS_LADDER)
    for eps, value in zip(BS_LADDER, bs["values"]):
        assert value == pytest.approx(1.0 / (1.0 + eps), abs=1e-12)
    assert bs["final_gap"] is None


@pytest.mark.parametrize("seed", range(4))
def test_free_coupling_c0_is_not_positive_by_rounding(ref_grid, seed):
    """At g = 0 on the reference ``nmax`` 4 grid the trivial-block lists
    (dims 250-255) run shift-invert, whose ground energy rounds to either
    side of 0 with the start vector (seed 2 rounds it below, so ``c0`` above 0);
    the free bundle still reports ``c0`` not positive and no
    decomposition."""
    ff0 = pl.sample_form_factor(ref_grid, "gaussian", 0.0)
    ws = pl.build_workspace(ref_grid, ff0, 4, config=SolverConfig(seed=seed))
    bundle = ws.build_bundle()
    assert bundle.c0 == pytest.approx(0.0, abs=1e-14)
    assert bundle.c0_positive is False
    assert bundle.phi is None and bundle.smat is None
    assert bundle.assumptions()["c0_positive"] is False


def test_weighted_lower_bound_decomposition(ref_bundles):
    """Dividing the decomposed Schur complement by |k| |l| gives exactly
    S + u u^T with u = phi + sqrt(c0) v / |k|; in particular it is bounded
    below by min spec S and stays (numerically) nonnegative here."""
    for bundle in ref_bundles.values():
        if bundle.phi is None:
            continue
        norms, v = bundle.mode_norms, bundle.v
        dmat_dec = -np.diag(bundle.e_k) + np.outer(v, v) * (
            1.0 / (1.0 + bundle.e0) - bundle.cmat
        )
        omat_dec = np.diag(norms**2 - bundle.e0) - dmat_dec + np.outer(v, v) / (
            1.0 + bundle.e0
        )
        weighted = omat_dec / np.outer(norms, norms)
        u = bundle.phi + np.sqrt(bundle.c0) * v / norms
        recon = bundle.smat + np.outer(u, u)
        assert np.allclose(weighted, recon, rtol=0, atol=1e-12)
        assert float(sla.eigvalsh(weighted)[0]) >= -1e-12
        assert float(sla.eigvalsh(weighted)[0]) >= bundle.s_min_eigenvalue() - 1e-12


def test_extended_kernel_structural_zeros(ref_bundles):
    """First row and column of the two-variable remainder kernel vanish."""
    for bundle in ref_bundles.values():
        cext = bundle.cmat_ext
        c0 = bundle.c0
        psi_ext = cext[:, 0] - c0
        fext = cext - c0 - psi_ext[:, None] - psi_ext[None, :]
        assert np.allclose(fext[0, :], 0.0, rtol=0, atol=1e-14)
        assert np.allclose(fext[:, 0], 0.0, rtol=0, atol=1e-14)


def test_c0_leading_order(ref_workspaces, ref_bundles):
    """c0 agrees with its second-order expression up to quartic terms."""
    g = 0.1
    ws, bundle = ref_workspaces[3], ref_bundles[3]
    ksq = bundle.mode_norms**2
    lead = float(np.sum(bundle.v**2 * ksq / (ksq + 1.0 - bundle.e0) ** 2))
    assert abs(bundle.c0 - lead) <= 10.0 * g**4


def test_momentum_validation(ref_workspaces):
    ws = ref_workspaces[2]
    with pytest.raises(ConfigError):
        ws.y_on_v(np.zeros(2))  # wrong dimension
    with pytest.raises(ConfigError):
        ws.x_handle(-0.5)


def _broken_form_factor(grid, g=0.2):
    """Gaussian amplitudes tilted so that no point-group element but the
    identity fixes them."""
    ff = pl.sample_form_factor(grid, "gaussian", g)
    tilt = 1.0 + grid.modes @ np.array([0.1, 0.03])
    return pl.FormFactor(profile="gaussian", g=g, alpha=1.0, values=ff.values * tilt)


@pytest.mark.parametrize(
    "d, K, h, xi, broken, order",
    [
        (1, 2.0, 0.5, None, False, 2),
        (2, 1.0, 1.0, None, False, 8),
        (3, 1.0, 1.0, None, False, 48),  # 26 modes, dense
        (2, 1.0, 0.5, [0.6, 0.0], False, 2),
        (2, 1.0, 0.5, [0.6, 0.3], False, 1),
        (2, 1.0, 1.0, None, True, 1),
    ],
)
def test_workspace_point_group_order(d, K, h, xi, broken, order):
    """The workspace keeps the signed coordinate permutations that fix ``xi``
    and the form factor exactly, and nothing else."""
    grid = pl.build_grid(d, K, h)
    ff = _broken_form_factor(grid) if broken else pl.sample_form_factor(grid, "gaussian", 0.2)
    ws = pl.build_workspace(grid, ff, 2, xi=xi)
    ops, perms = grid.point_group()
    kept = [any(np.array_equal(perm, p) for p in ws.symmetry.mode_perms) for perm in perms]
    assert sum(kept) == len(ws.symmetry.mode_perms) == order
    for op, perm, keep in zip(ops, perms, kept):
        fixes = np.array_equal(op @ ws.xi, ws.xi) and np.array_equal(ff.values[perm], ff.values)
        assert keep == fixes


def _unsymmetrized_d_kernel(ws, eps):
    """``R^T X(eps) R`` with every raised column solved by dense numpy."""
    raised = np.column_stack(
        [(pl.fock.creator(ws.basis, j) @ ws.v)[ws.start2 :] for j in range(ws.grid.size)]
    )
    shift = eps - 1.0 - ws.e0
    tail = ws.restricted_matrix(TAIL_TWO, np.zeros(ws.grid.d), shift).toarray()
    return raised.T @ np.linalg.solve(tail, raised)


@pytest.mark.parametrize(
    "d, K, h, xi, broken, nmax, order",
    [
        (1, 2.0, 0.5, None, False, 4, 2),  # dim 495
        (2, 1.0, 1.0, None, False, 4, 8),  # dim 495
        (2, 1.0, 1.0, None, True, 4, 1),
        (2, 1.0, 0.5, [0.6, 0.0], False, 2, 2),  # dim 325
        (3, 1.0, 1.0, None, False, 2, 48),  # dim 378, permutation-flip carriers
    ],
    ids=["d1", "radial", "broken", "shifted", "d3"],
)
def test_orbit_kernels_match_unsymmetrized(d, K, h, xi, broken, nmax, order):
    """On the sparse path, the orbit-representative kernels equal the
    unsymmetrized ones: ``D`` against dense solves of every raised column,
    ``C`` against ``c_kernel`` on every point pair, ``e_k`` against
    ``energy_curve`` on every mode."""
    grid = pl.build_grid(d, K, h)
    ff = _broken_form_factor(grid) if broken else pl.sample_form_factor(grid, "gaussian", 0.2)
    ws = pl.build_workspace(grid, ff, nmax, config=SolverConfig(dense_threshold=10), xi=xi)
    assert len(ws.symmetry.mode_perms) == order
    for eps in (0.0, 0.3):
        assert np.allclose(ws.d_kernel(eps), _unsymmetrized_d_kernel(ws, eps), rtol=0, atol=1e-10)
    if xi is not None:
        return
    cmat = ws.c_matrix()
    points = np.vstack([np.zeros((1, d)), grid.modes])
    pointwise = np.array([[ws.c_kernel(k, l) for l in points] for k in points])
    assert pointwise.shape == (grid.size + 1, grid.size + 1)
    assert np.allclose(cmat, pointwise, rtol=0, atol=1e-12)
    if not broken:
        e_k = ws.build_bundle().e_k
        curve = np.array([ws.energy_curve(k) for k in grid.modes])
        assert np.allclose(e_k, curve, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "d, K, h, profile, g, nmax",
    [
        (1, 2.0, 0.5, "gaussian", 0.1, 4),
        (2, 1.0, 0.5, "constant", 0.5, 3),
        (3, 1.0, 1.0, "froehlich", 0.1, 3),
    ],
)
def test_kernels_exactly_symmetric(d, K, h, profile, g, nmax):
    """``C`` and ``D`` are symmetric to the bit: each pair of mirrored
    entries is filled from one value, so the rearrangement identity's
    ``symmetry`` residual reads 0."""
    grid = pl.build_grid(d, K, h)
    ws = pl.build_workspace(grid, pl.sample_form_factor(grid, profile, g), nmax)
    cmat = ws.c_matrix()
    assert np.array_equal(cmat, cmat.T)
    for eps in (0.0, 0.3):
        dmat = ws.d_kernel(eps)
        assert np.array_equal(dmat, dmat.T)


def test_kernel_families_held_on_representatives():
    """On the paper's model at ``nmax`` 3 (dim 3654; 26 modes in 3 orbits,
    4 point orbits with zero) every covariant family is held as its
    representatives' columns: once a first call has built the handles, a
    second ``d_kernel(0)`` traces at most 4 and ``c_matrix()`` at most 8
    times (orbits + 1) vectors of the basis dimension.  Dense families of
    all ``M + 1`` columns take 31 and 101 such vectors."""
    grid = pl.build_grid(3, 1.0, 1.0)
    ws = pl.build_workspace(grid, pl.sample_form_factor(grid, "froehlich", 0.1), 3)
    n_orbits = len(np.unique(pl.fock.orbits(ws.symmetry.mode_perms)[0]))
    assert (ws.basis.dim, grid.size, n_orbits) == (3654, 26, 3)
    vector = 8 * ws.basis.dim
    for kernel, multiple in ((lambda: ws.d_kernel(0.0), 4), (ws.c_matrix, 8)):
        kernel()
        tracemalloc.start()
        try:
            kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= multiple * (n_orbits + 1) * vector


def test_workspace_builds_the_trivial_block_alone(caplog):
    """``e0`` and the bundle's tail gaps read the trivial flip block alone,
    so a workspace builds ``block(0)`` and no other ``Q_chi`` until a count
    asks for the rest; each block is built once and the dimensions are
    logged once, before any other block is built."""
    grid = pl.build_grid(2, 1.0, 0.5)
    with caplog.at_level(logging.DEBUG, logger="polaronlab"):
        ws = pl.build_workspace(grid, pl.sample_form_factor(grid, "gaussian", 0.1), 3)
        ws.build_bundle()
        assert list(ws.symmetry._blocks) == [0]
        trivial = ws.symmetry.block(0)
        assert pl.count_below(ws.hamiltonian, ws.symmetry, ws.e0 + 1.0, 1e-6) >= 1
    assert sorted(ws.symmetry._blocks) == [0, 1, 2, 3]
    assert ws.symmetry.block(0) is trivial
    events = [r.getMessage() for r in caplog.records if r.getMessage().startswith("character")]
    assert events == [
        "character blocks of the order-8 group (flip order 4): dims [777, 728, 728, 692] of 2925"
    ]


def test_point_group_logged(caplog):
    grid = pl.build_grid(2, 1.0, 0.5)
    ff = pl.sample_form_factor(grid, "gaussian", 0.1)
    with caplog.at_level(logging.DEBUG, logger="polaronlab"):
        pl.build_workspace(grid, ff, 2)
        pl.build_workspace(grid, ff, 2, xi=[0.6, 0.3])
    events = [r.getMessage() for r in caplog.records if r.getMessage().startswith("point group")]
    assert events == [
        "point group of order 8: 5 mode orbits, 15 of 81 Z(s) sums",
        "point group of order 1: 24 mode orbits, 81 of 81 Z(s) sums",
    ]
    blocks = [r.getMessage() for r in caplog.records if r.getMessage().startswith("character")]
    assert blocks == [
        "character blocks of the order-8 group (flip order 4): dims [97, 78, 78, 72] of 325",
        "character blocks of the order-1 group (flip order 1): dims [325] of 325",
    ]
    assert logging.getLogger("polaronlab").handlers == []


def test_c_matrix_builds_one_z_handle_per_sum_orbit():
    """15 orbits of the 81 sums ``k + l`` on the 24-mode d=2 grid."""
    grid = pl.build_grid(2, 1.0, 0.5)
    ws = pl.build_workspace(grid, pl.sample_form_factor(grid, "gaussian", 0.1), 2)
    ws.c_matrix()
    assert sum(h.kind == "full" for h in ws._handles.values()) == 15


def test_spectral_solves_factor_only_the_invariant_sector(monkeypatch):
    """``e0``, ``nu1`` and ``nu2`` are solved on the trivial block of the 4
    sign flips, the flip-invariant sector (dim 777 of 2925), so building
    the workspace and the bundle factors nothing of the full dimension,
    and nothing larger than that block; the values equal the full-space
    minima."""
    grid = pl.build_grid(2, 1.0, 0.5)
    ff = pl.sample_form_factor(grid, "gaussian", 0.1)
    factored = []

    class CountingFactor(pl.spectral.SymmetricFactor):
        def __init__(self, mat, shift, label="operator"):
            factored.append(mat.shape[0])
            super().__init__(mat, shift, label)

    monkeypatch.setattr(pl.spectral, "SymmetricFactor", CountingFactor)
    ws = pl.build_workspace(grid, ff, 3)
    bundle = ws.build_bundle()
    symmetry = ws.symmetry
    assert (ws.basis.dim, symmetry.block(0).shape[1], len(symmetry.flips)) == (2925, 777, 4)
    assert 2925 not in factored
    assert max(factored, default=0) <= 777
    # against the full-space Lanczos minima of H and its tails
    starts = {n: ws.basis.tail_start(n) for n in (0, 1, 2)}
    lowest = {
        n: pl.lowest_eigenpairs(ws.hamiltonian[at:, at:], 1, ws.config).values[0]
        for n, at in starts.items()
    }
    assert ws.e0 == pytest.approx(lowest[0], abs=1e-11)
    assert bundle.nu1 == pytest.approx(lowest[1] - 1.0 - ws.e0, abs=1e-11)
    assert bundle.nu2 == pytest.approx(lowest[2] - 1.0 - ws.e0, abs=1e-11)
