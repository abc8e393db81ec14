"""Eigenvalue solvers, sector gaps, and counting."""

import logging
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st

import polaronlab as pl
from polaronlab import ConfigError, IndefiniteOperatorError, SolverConfig, SolverError
from polaronlab.spectral import SpdSolver, SymmetricFactor, _gershgorin_lower, start_vector

import oracles


def _split(mat):
    """A whole matrix as ``SpdSolver``'s pair: its off-diagonal part (CSR)
    and a call that returns its diagonal."""
    mat = sp.csr_matrix(mat)
    diag = mat.diagonal()
    return (mat - sp.diags(diag, format="csr")).tocsr(), lambda: diag


def _trivial(dim):
    """The identity group on a basis of ``dim`` states (``dim - 1`` modes,
    one boson), whose one character block is the identity: the symmetry
    with which a count or a list runs on a matrix that is no fiber
    Hamiltonian, on the whole space as one block."""
    basis = pl.enumerate_basis(dim - 1, 1)
    return pl.fock.Symmetry(basis, np.arange(dim - 1)[None, :], np.zeros(1, dtype=np.int64))


@pytest.fixture(scope="module")
def mid_instance():
    grid = pl.build_grid(1, 2.0, 0.5)
    ff = pl.sample_form_factor(grid, "gaussian", 0.1)
    basis = pl.enumerate_basis(grid.size, 3)  # dim 165
    ham = pl.assemble_hamiltonian(basis, grid, ff).matrix
    return grid, ff, basis, ham


def test_dense_and_lanczos_agree(mid_instance):
    grid, ff, basis, ham = mid_instance
    dense_cfg = SolverConfig(dense_threshold=500)
    sparse_cfg = SolverConfig(dense_threshold=10)
    vals_d = pl.lowest_eigenpairs(ham, 4, dense_cfg).values
    vals_s = pl.lowest_eigenpairs(ham, 4, sparse_cfg).values
    assert np.allclose(vals_d, vals_s, rtol=0, atol=1e-9)


@pytest.fixture(scope="module")
def degenerate_instance():
    """d=2 instance (dim 325) with double eigenvalues at indices 2-3
    and 6-7, from the two-dimensional irreps of the grid's point group."""
    grid = pl.build_grid(2, 1.0, 0.5)
    ff = pl.sample_form_factor(grid, "constant", 0.5)
    return pl.assemble_hamiltonian(pl.enumerate_basis(grid.size, 2), grid, ff).matrix


def _assert_dense_pairs_exact(ham, counts, config):
    truth = np.linalg.eigvalsh(ham.toarray())
    for count in counts:
        pairs = pl.lowest_eigenpairs(ham, count, config)
        assert pairs.method == "dense"
        assert pairs.values.shape == (count,) and pairs.vectors.shape == (ham.shape[0], count)
        assert np.allclose(pairs.values, truth[:count], rtol=0, atol=1e-12), count
        gram = pairs.vectors.T @ pairs.vectors
        assert np.allclose(gram, np.eye(count), rtol=0, atol=1e-12), count


def test_dense_subset_matches_full_spectrum(mid_instance):
    """The dense path asks LAPACK for the lowest ``count`` pairs only; they
    are the bottom of the full spectrum, with orthonormal vectors."""
    ham = mid_instance[3]
    _assert_dense_pairs_exact(ham, (1, 6, ham.shape[0] - 1, ham.shape[0]), SolverConfig())


def test_dense_subset_keeps_degenerate_copies(degenerate_instance):
    """A count that closes a double eigenvalue returns both copies; a count
    that cuts through one (3 here) is legitimate and returns one.  At dim
    325, above the default threshold, the dense path is asked for."""
    truth = np.linalg.eigvalsh(degenerate_instance.toarray())
    assert truth[3] - truth[2] <= 1e-12 and truth[7] - truth[6] <= 1e-12
    assert truth[2] == pytest.approx(0.63449809, abs=1e-8)
    assert truth[6] == pytest.approx(0.85694709, abs=1e-8)
    _assert_dense_pairs_exact(degenerate_instance, (3, 4, 8), SolverConfig(dense_threshold=500))


@pytest.fixture(scope="module")
def crossover_matrices(ref_grid, ref_ff):
    """The reference ladder's H at ``nmax`` 2, 3 and 4 (dims 45, 165, 495),
    the d=2 instance's trivial block ``Q_0^T H Q_0`` at ``nmax`` 3 (dim
    777), and the leading blocks of the reference ``nmax`` 4 H at dims 200
    and 201, either side of the default threshold."""
    mats = []
    for nmax in (2, 3, 4):
        basis = pl.enumerate_basis(ref_grid.size, nmax)
        mats.append(pl.assemble_hamiltonian(basis, ref_grid, ref_ff).matrix)
    grid = pl.build_grid(2, 1.0, 0.5)
    ff = pl.sample_form_factor(grid, "gaussian", 0.1)
    basis = pl.enumerate_basis(grid.size, 3)
    ham = pl.assemble_hamiltonian(basis, grid, ff).matrix
    mats.append(pl.fock.symmetry(basis, grid, ff).block_matrix(ham, 0))
    mats += [mats[2][:dim, :dim] for dim in (200, 201)]
    return mats


def test_default_threshold_sends_large_lists_to_shift_invert(crossover_matrices):
    """At the default threshold a list is dense exactly when its dimension
    is at most 200 or it asks for all pairs but at most one; the values are
    those of the dense path within 1e-12."""
    assert [m.shape[0] for m in crossover_matrices] == [45, 165, 495, 777, 200, 201]
    dense = SolverConfig(dense_threshold=1000)
    for mat in crossover_matrices:
        dim = mat.shape[0]
        for count in (1, 6, dim - 1):
            pairs = pl.lowest_eigenpairs(mat, count, SolverConfig())
            expected = "dense" if dim <= 200 or count >= dim - 1 else "shift-invert"
            assert pairs.method == expected, (dim, count)
            reference = pl.lowest_eigenpairs(mat, count, dense)
            assert reference.method == "dense"
            assert np.allclose(pairs.values, reference.values, rtol=0, atol=1e-12), (dim, count)


def test_largest_reference_list_holds_no_dense_copy(crossover_matrices):
    """The reference ``nmax`` 4 list of 6 pairs (dim 495) allocates less
    than one dense copy of its matrix, ``8 dim^2`` bytes, at its peak; dense
    ``syevr`` holds two."""
    ham = crossover_matrices[2]
    dim = ham.shape[0]
    tracemalloc.start()
    try:
        pairs = pl.lowest_eigenpairs(ham, 6, SolverConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs.method == "shift-invert"
    assert peak < 8 * dim * dim


#: one grid per dimension, 8 modes each: dims 45 and 165 at nmax 2 and 3, so
#: dense eigvalsh gives the reference
_DENSE_GRIDS = {1: (2.0, 0.5), 2: (1.0, 1.0)}


def _assert_trivial_block_minima(ham, basis, symmetry, cfg):
    """``ground_energy``, ``nu(1)`` and ``nu(2)`` on the trivial block are
    the minima of the full spectra of H and of its tails, and the lifted ground
    vector is an eigenvector of the full H within the residual bound that
    ``ground_energy`` certifies."""
    dense = ham.toarray()
    e0, vec = pl.ground_energy(ham, symmetry, cfg)
    assert abs(e0 - np.linalg.eigvalsh(dense)[0]) <= 1e-12
    bound = pl.spectral._residual_bound(np.array([e0]), ham.shape[0])
    assert np.linalg.norm(ham @ vec - e0 * vec) <= bound
    for n in (1, 2):
        start = basis.tail_start(n)
        tail_min = np.linalg.eigvalsh(dense[start:, start:])[0]
        assert abs(pl.nu(ham, e0, n, symmetry, cfg) - (tail_min - 1.0 - e0)) <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from([(1, None), (2, None), (2, (0.6, 0.0))]),
    profile=st.sampled_from(pl.grid.PROFILES),
    g=st.floats(0.0, 1.5),
    nmax=st.sampled_from([2, 3]),
    dense_threshold=st.sampled_from([10, 500]),
)
# its lifted ground vector leaves a residual of 3.0e-10, above 1e-10
@example(shape=(1, None), profile="froehlich", g=1.0, nmax=3, dense_threshold=10)
def test_dense_ground_energy_and_gaps_match_full_spectrum(
    shape, profile, g, nmax, dense_threshold
):
    """The trivial block's minima are the full-space ones (d=1, 2, with and
    without a fiber shift), on the dense and on the sparse path."""
    d, xi = shape
    grid = pl.build_grid(d, *_DENSE_GRIDS[d])
    basis = pl.enumerate_basis(grid.size, nmax)
    # alpha (froehlich only) must lie below d; 0.5 serves both dimensions
    ff = pl.sample_form_factor(grid, profile, g, alpha=0.5)
    ham = pl.assemble_hamiltonian(basis, grid, ff, xi=xi).matrix
    symmetry = pl.fock.symmetry(basis, grid, ff, xi)
    _assert_trivial_block_minima(
        ham, basis, symmetry, SolverConfig(dense_threshold=dense_threshold)
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from([(1, None), (2, None), (2, (0.6, 0.0))]),
    profile=st.sampled_from(pl.grid.PROFILES),
    g=st.floats(0.0, 1.5),
    nmax=st.sampled_from([2, 3]),
    count=st.integers(1, 8),
)
def test_interlacing_cut_lists_each_block_below_it(shape, profile, g, nmax, count):
    """At ``dense_threshold=10`` the interlacing cut lies above the
    ``count``-th eigenvalue, and each character block lists exactly its
    dense eigenvalues below the cut (d=1, 2, with and without a fiber
    shift)."""
    d, xi = shape
    grid = pl.build_grid(d, *_DENSE_GRIDS[d])
    basis = pl.enumerate_basis(grid.size, nmax)
    ff = pl.sample_form_factor(grid, profile, g, alpha=0.5)
    ham = pl.assemble_hamiltonian(basis, grid, ff, xi=xi).matrix
    blocks = pl.fock.symmetry(basis, grid, ff, xi).block_matrices(ham)
    config = SolverConfig(dense_threshold=10)
    cut = pl.spectral._interlacing_cut(blocks, count, config)
    assert cut > np.linalg.eigvalsh(ham.toarray())[count - 1]
    for block, pairs in zip(blocks, pl.spectral._lists_below(blocks, cut, config)):
        dense = np.linalg.eigvalsh(block.toarray())
        assert len(pairs.values) == np.count_nonzero(dense < cut)
        assert np.allclose(pairs.values, dense[dense < cut], rtol=0, atol=1e-9)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from([(1, None), (1, (0.3,)), (2, None), (2, (0.6, 0.0))]),
    profile=st.sampled_from(pl.grid.PROFILES),
    g=st.floats(0.0, 1.5),
    nmax=st.sampled_from([2, 3]),
    count=st.integers(1, 8),
)
def test_block_lists_match_full_spectrum(shape, profile, g, nmax, count):
    """On the sparse path (``dense_threshold=10``) the character-block list
    of ``count`` pairs is the bottom of the dense spectrum, at xi = 0 and at
    a shift that leaves one block (d=1) or two (d=2), and its vacuum
    overlap is the dense ground vector's."""
    d, xi = shape
    grid = pl.build_grid(d, *_DENSE_GRIDS[d])
    basis = pl.enumerate_basis(grid.size, nmax)
    ff = pl.sample_form_factor(grid, profile, g, alpha=0.5)
    ham = pl.assemble_hamiltonian(basis, grid, ff, xi=xi).matrix
    symmetry = pl.fock.symmetry(basis, grid, ff, xi)
    assert len(symmetry.characters) == 2 ** (d - (xi is not None))
    vals, vecs = np.linalg.eigh(ham.toarray())
    summary = pl.spectrum_summary(ham, symmetry, count, SolverConfig(dense_threshold=10), 0.1)
    assert np.allclose(summary["eigenvalues"], vals[:count], rtol=0, atol=1e-9)
    assert sum(b["share"] for b in summary["diagnostics"]["blocks"]) == count
    ground = vecs[:, 0] * np.sign(vecs[np.argmax(np.abs(vecs[:, 0])), 0])
    assert summary["vacuum_overlap"] == pytest.approx(ground[0], abs=1e-8)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from([(1, None), (2, None), (2, (0.6, 0.0))]),
    profile=st.sampled_from(pl.grid.PROFILES),
    g=st.floats(0.0, 1.5),
    nmax=st.sampled_from([2, 3]),
)
def test_hamiltonian_symmetric_and_sparse_counts_match_dense(shape, profile, g, nmax):
    """The assembled H equals its transpose exactly, the inertia count
    equals the dense count at the window cut ``e0 + 1 - buffer`` and at a
    cut inside the spectrum, and the factor's solve there is the dense
    solve."""
    d, xi = shape
    grid = pl.build_grid(d, *_DENSE_GRIDS[d])
    basis = pl.enumerate_basis(grid.size, nmax)
    ff = pl.sample_form_factor(grid, profile, g, alpha=0.5)
    ham = pl.assemble_hamiltonian(basis, grid, ff, xi=xi).matrix
    symmetry = pl.fock.symmetry(basis, grid, ff, xi)
    assert (ham != ham.T).nnz == 0
    vals = np.linalg.eigvalsh(ham.toarray())
    buffer = SolverConfig().buffer(grid.h)
    window = vals[0] + 1.0 - buffer
    assert pl.count_below(ham, symmetry, vals[0] + 1.0, buffer) == int(np.sum(vals <= window))
    # the midpoint of the spectral gap nearest the middle of the spectrum
    gaps = np.flatnonzero(np.diff(vals) > 1e-6)
    j = gaps[np.argmin(np.abs(gaps - basis.dim // 2))]
    cut = 0.5 * (vals[j] + vals[j + 1])
    assert pl.count_below(ham, symmetry, cut, 0.0) == j + 1
    rhs = start_vector(basis.dim, 5)
    exact = np.linalg.solve(ham.toarray() - cut * np.eye(basis.dim), rhs)
    solved = SymmetricFactor(ham, cut).solve(rhs)
    assert np.allclose(solved, exact, rtol=0, atol=1e-9 * np.abs(exact).max())


@pytest.mark.parametrize("profile, g", [("froehlich", 0.1), ("constant", 0.3)])
def test_sector_minima_in_three_dimensions(profile, g):
    """On the 26-mode d=3 grid the trivial block of the 8 sign flips (dim
    76 of 378), and at xi = (0.5, 0, 0) that of the 4 left (dim 126), give
    the full-space minima of H and its tails on the sparse path."""
    grid = pl.build_grid(3, 1.0, 1.0)
    basis = pl.enumerate_basis(grid.size, 2)  # dim 378
    ff = pl.sample_form_factor(grid, profile, g, alpha=1.0)
    for xi, flips, dim in ((None, 8, 76), ((0.5, 0.0, 0.0), 4, 126)):
        ham = pl.assemble_hamiltonian(basis, grid, ff, xi=xi).matrix
        symmetry = pl.fock.symmetry(basis, grid, ff, xi)
        assert (len(symmetry.flips), symmetry.block(0).shape[1]) == (flips, dim)
        _assert_trivial_block_minima(ham, basis, symmetry, SolverConfig(dense_threshold=10))


@pytest.mark.parametrize("xi, calls", [(None, 7), ((0.5, 0.0, 0.0), 3)])
def test_spectral_solves_permute_the_sign_flips_alone(monkeypatch, xi, calls):
    """``ground_energy`` then ``spectrum_summary`` on the d=3 grid at
    ``nmax`` 2 build one ``U_a`` per sign flip but the identity, once: 7 of
    the order-48 group's 8 flips, and at xi = (0.5, 0, 0) 3 of the order-8
    group's 4.  None of the other elements' ``U_g`` is built."""
    grid = pl.build_grid(3, 1.0, 1.0)
    ff = pl.sample_form_factor(grid, "froehlich", 0.1, alpha=1.0)
    basis = pl.enumerate_basis(grid.size, 2)
    ham = pl.assemble_hamiltonian(basis, grid, ff, xi=xi).matrix
    symmetry = pl.fock.symmetry(basis, grid, ff, xi)
    assert len(symmetry.flips) == calls + 1
    moved = []
    permute_modes = pl.FockBasis.permute_modes

    def counting(self, mode_perm):
        moved.append(mode_perm)
        return permute_modes(self, mode_perm)

    monkeypatch.setattr(pl.FockBasis, "permute_modes", counting)
    config = SolverConfig()
    pl.ground_energy(ham, symmetry, config)
    pl.spectrum_summary(ham, symmetry, 6, config, config.buffer(grid.h))
    assert len(moved) == calls


def test_eigenpair_validation(mid_instance):
    grid, ff, basis, ham = mid_instance
    cfg = SolverConfig()
    with pytest.raises(ConfigError):
        pl.lowest_eigenpairs(ham, 0, cfg)
    with pytest.raises(ConfigError):
        pl.lowest_eigenpairs(ham, basis.dim + 1, cfg)


def test_ground_vector_sign_deterministic(mid_instance):
    grid, ff, basis, ham = mid_instance
    cfg = SolverConfig()
    symmetry = pl.fock.symmetry(basis, grid, ff)
    e1, v1 = pl.ground_energy(ham, symmetry, cfg)
    e2, v2 = pl.ground_energy(ham, symmetry, cfg)
    assert e1 == e2
    assert np.array_equal(v1, v2)
    assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)
    assert v1[int(np.argmax(np.abs(v1)))] > 0


def test_free_theory_exact_values():
    """With the coupling off the spectrum is the free one: ground energy 0,
    one-boson gap h^2 above the line shift, two-boson gap exactly 1."""
    grid = pl.build_grid(1, 2.0, 0.5)
    ff = pl.sample_form_factor(grid, "gaussian", 0.0)
    basis = pl.enumerate_basis(grid.size, 3)
    ham = pl.assemble_hamiltonian(basis, grid, ff).matrix
    cfg = SolverConfig()
    symmetry = pl.fock.symmetry(basis, grid, ff)
    result = pl.spectrum_summary(ham, symmetry, 4, cfg, 0.1)
    assert abs(result["eigenvalues"][0]) <= 1e-14
    assert result["vacuum_overlap"] == pytest.approx(1.0, abs=1e-12)
    assert result["nu1"] == pytest.approx(grid.h**2, abs=1e-12)
    assert result["nu2"] == pytest.approx(1.0, abs=1e-12)
    # direct calls agree with the summary
    assert pl.nu(ham, 0.0, 1, symmetry, cfg) == pytest.approx(result["nu1"], abs=1e-13)
    assert pl.nu(ham, 0.0, 2, symmetry, cfg) == pytest.approx(result["nu2"], abs=1e-13)


def test_count_below_free_theory():
    grid = pl.build_grid(1, 2.0, 0.5)
    ff = pl.sample_form_factor(grid, "gaussian", 0.0)
    basis = pl.enumerate_basis(grid.size, 3)
    ham = pl.assemble_hamiltonian(basis, grid, ff).matrix
    symmetry = pl.fock.symmetry(basis, grid, ff)
    # exactly the vacuum sits below the one-boson line minus the buffer
    assert pl.count_below(ham, symmetry, 1.0, SolverConfig().buffer(grid.h)) == 1
    with pytest.raises(ConfigError):
        pl.count_below(ham, symmetry, 1.0, -0.1)


def test_ground_energy_nonincreasing_in_coupling():
    """e0(g) is a minimum of functions affine in g and symmetric under
    g -> -g, hence non-increasing for g >= 0."""
    grid = pl.build_grid(1, 1.0, 1.0)
    basis = pl.enumerate_basis(grid.size, 2)
    cfg = SolverConfig()
    energies = []
    for g in (0.0, 0.05, 0.1, 0.2):
        ff = pl.sample_form_factor(grid, "gaussian", g)
        ham = pl.assemble_hamiltonian(basis, grid, ff).matrix
        energies.append(pl.ground_energy(ham, pl.fock.symmetry(basis, grid, ff), cfg)[0])
    assert energies[0] == pytest.approx(0.0, abs=1e-14)
    for a, b in zip(energies, energies[1:]):
        assert b < a + 1e-14


def test_spectrum_summary_residuals_certified(mid_instance):
    grid, ff, basis, ham = mid_instance
    symmetry = pl.fock.symmetry(basis, grid, ff)
    dense = pl.spectrum_summary(ham, symmetry, 6, SolverConfig(), 0.1)
    sparse = pl.spectrum_summary(ham, symmetry, 6, SolverConfig(dense_threshold=10), 0.1)
    for result in (dense, sparse):
        assert result["eigenvalues"].shape == (6,)
        assert np.all(np.diff(result["eigenvalues"]) >= 0)
        assert np.all(result["residuals"] <= 1e-8)
        assert 0.9 < result["vacuum_overlap"] <= 1.0
        e0 = result["eigenvalues"][0]
        assert result["nu2"] == pytest.approx(pl.nu(ham, e0, 2, symmetry, SolverConfig()))
    assert np.allclose(sparse["eigenvalues"], dense["eigenvalues"], rtol=0, atol=1e-9)
    # the diagnostics name each block's dimension, its share of the list,
    # the path its list took and its factor solves
    halves = [(85, 4), (80, 2)]
    assert [(b["dim"], b["share"]) for b in dense["diagnostics"]["blocks"]] == halves
    assert [(b["dim"], b["share"]) for b in sparse["diagnostics"]["blocks"]] == halves
    assert all(b["method"] == "dense" and b["iterations"] == 0
               for b in dense["diagnostics"]["blocks"])
    assert all(b["method"] == "shift-invert" and b["iterations"] > 0
               for b in sparse["diagnostics"]["blocks"])
    # asking for (almost) every eigenvalue takes the dense path at any size
    tiny_grid = pl.build_grid(1, 1.0, 1.0)
    tiny = pl.enumerate_basis(tiny_grid.size, 3)  # dim 10
    tiny_ff = pl.sample_form_factor(tiny_grid, "gaussian", 0.2)
    tiny_ham = pl.assemble_hamiltonian(tiny, tiny_grid, tiny_ff).matrix
    tiny_symmetry = pl.fock.symmetry(tiny, tiny_grid, tiny_ff)
    full = pl.spectrum_summary(tiny_ham, tiny_symmetry, 10, SolverConfig(dense_threshold=5), 0.1)
    assert [b["share"] for b in full["diagnostics"]["blocks"]] == [6, 4]
    assert all(b["method"] == "dense" for b in full["diagnostics"]["blocks"])


def test_spd_solver_dense_and_cg_agree(mid_instance):
    """``SpdSolver`` solves by Jacobi PCG at every dimension (here 165, at the
    default threshold 500), and its answers are the dense
    ``np.linalg.solve`` ones, for one vector or a block of columns."""
    grid, ff, basis, ham = mid_instance
    e0, _ = pl.ground_energy(ham, pl.fock.symmetry(basis, grid, ff), SolverConfig())
    identity = sp.identity(basis.dim, format="csr")
    rhs = np.column_stack([start_vector(basis.dim, 7), start_vector(basis.dim, 8)])
    # a diagonal offset, and the Hamiltonian shifted to half a unit below e0
    for shifted in (ham + 2.0 * identity, ham - (e0 - 0.5) * identity):
        solver = SpdSolver(*_split(shifted))
        exact = np.linalg.solve(shifted.toarray(), rhs)
        x = solver.solve(rhs[:, 0])
        assert np.allclose(x, exact[:, 0], rtol=0, atol=1e-9)
        assert np.linalg.norm(shifted @ x - rhs[:, 0]) <= 1e-10
        # a block of columns matches one-by-one solves
        batch = solver.solve(rhs)
        assert batch.shape == rhs.shape
        assert np.allclose(batch[:, 0], x, rtol=0, atol=1e-12)
        assert np.allclose(batch, exact, rtol=0, atol=1e-9)


def test_spd_solver_rejects_indefinite():
    mat = np.diag([1.0, -0.5, 2.0])
    with pytest.raises(IndefiniteOperatorError, match=" has 1 negative eigenvalues$"):
        SpdSolver(*_split(mat))
    # a singular matrix is no M-matrix, and its factor has a zero pivot, a
    # plain ``SolverError``
    with pytest.raises(SolverError, match="singular"):
        SpdSolver(*_split(np.diag([1.0, 0.0, 2.0])))
    diagonal = sp.diags([1.0, -0.5] + [2.0] * 48, format="csr")
    coupled = sp.block_diag([np.array([[1.0, 1.5], [1.5, 1.0]])] * 10, format="csr")
    # as many positive entries as rows, and positive row sums, but on a
    # negative diagonal: eigenvalues 1 and -3 per block
    flipped = sp.block_diag([np.array([[-1.0, 2.0], [2.0, -1.0]])] * 10, format="csr")
    # definiteness is certified at construction
    for sparse_mat, negative in ((diagonal, 1), (coupled, 10), (flipped, 10)):
        with pytest.raises(IndefiniteOperatorError, match=f" has {negative} negative eigenvalues$"):
            SpdSolver(*_split(sparse_mat))


def test_spd_solver_certificate_m_matrix_else_inertia(mid_instance, caplog, live_factors):
    """In its sign gauge a shifted H is certified as an M-matrix with no
    factor built: by ``x = 1`` (Gershgorin in the gauge) when the shift is
    large, by the CG solution of ``A y = s`` when Gershgorin fails.  A
    definite matrix under signs that do not gauge it is certified by its
    inertia, and that factor is gone once the solver is built.  Every way
    the Jacobi CG solve matches the dense Cholesky answer."""
    grid, ff, basis, ham = mid_instance
    signs = pl.fock.sign_gauge(basis, ff)
    e0 = np.linalg.eigvalsh(ham.toarray())[0]
    identity = sp.identity(basis.dim, format="csr")
    dominant = ham + 2.0 * identity
    tight = ham - (e0 - 0.1) * identity
    # eigenvalues 0.197 and 3.803, a positive off-diagonal entry
    skewed = sp.block_diag([np.array([[3.0, 1.5], [1.5, 1.0]])] * 10, format="csr")
    assert _gershgorin_lower(dominant) > 0 >= _gershgorin_lower(tight)
    cases = (
        (dominant, signs, "m-matrix"),
        (tight, signs, "m-matrix"),
        (skewed, np.ones(20), "inertia"),
    )
    logger = logging.getLogger("polaronlab")
    for mat, gauge, certificate in cases:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="polaronlab"):
            solver = SpdSolver(*_split(mat), label="probe", signs=gauge)
        events = [r.getMessage() for r in caplog.records if r.name == "polaronlab"]
        assert events == [f"probe: dim {mat.shape[0]} certified positive definite by {certificate}"]
        factors = [r for r in caplog.records if r.name == "polaronlab.factor"]
        assert len(factors) == (certificate == "inertia")
        assert len(live_factors.live) == 0
        rhs = start_vector(mat.shape[0], 5)
        exact = sla.cho_solve(sla.cho_factor(mat.toarray()), rhs)
        assert np.allclose(solver.solve(rhs), exact, rtol=0, atol=1e-10)
    assert live_factors.built == ["probe"]
    assert logger.handlers == []


def test_sparse_solve_logs_its_columns_and_iterations(mid_instance, caplog):
    """Each ``solve`` logs one DEBUG event with the label, the column count
    and the PCG iterations of all its columns; a zero column is solved by
    zero in no iteration."""
    grid, ff, basis, ham = mid_instance
    shifted = ham + 2.0 * sp.identity(basis.dim, format="csr")
    solver = SpdSolver(*_split(shifted), label="probe")
    rhs = start_vector(basis.dim, 3)

    def solve_events(b):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="polaronlab"):
            x = solver.solve(b)
        return x, [r.getMessage() for r in caplog.records if r.name == "polaronlab"]

    _, [one] = solve_events(rhs)
    match = re.fullmatch(r"solve probe: 1 columns in (\d+) PCG iterations", one)
    assert match and int(match.group(1)) > 0
    block, [two] = solve_events(np.column_stack([rhs, np.zeros(basis.dim)]))
    assert two == f"solve probe: 2 columns in {match.group(1)} PCG iterations"
    assert np.array_equal(block[:, 1], np.zeros(basis.dim))


def test_pcg_failure_paths(mid_instance, monkeypatch, caplog):
    """With one PCG iteration allowed, a sparse solve raises ``SolverError``
    naming its label, while the certificate's CG try, which stops as early,
    never raises: its iterate still proves definiteness with the spectrum
    0.1 above zero, and hands over to inertia at 0.01, where the full run
    proves it."""
    grid, ff, basis, ham = mid_instance
    signs = pl.fock.sign_gauge(basis, ff)
    e0 = np.linalg.eigvalsh(ham.toarray())[0]
    identity = sp.identity(basis.dim, format="csr")
    # x = 1 fails on both matrices, so their certificates rest on the CG try
    margins = {0.1: ham - (e0 - 0.1) * identity, 0.01: ham - (e0 - 0.01) * identity}
    with caplog.at_level(logging.DEBUG, logger="polaronlab"):
        solver = SpdSolver(*_split(margins[0.01]), label="tight probe", signs=signs)
    assert caplog.messages[-1].endswith(" by m-matrix")
    monkeypatch.setattr(pl.spectral, "MAX_ITERATIONS", 1)
    with pytest.raises(SolverError, match="^conjugate gradients on tight probe did not converge"):
        solver.solve(start_vector(basis.dim, 4))
    for margin, certificate in ((0.1, "m-matrix"), (0.01, "inertia")):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="polaronlab"):
            SpdSolver(*_split(margins[margin]), label="early probe", signs=signs)
        events = [r.getMessage() for r in caplog.records if r.name == "polaronlab"]
        assert events == [f"early probe: dim {basis.dim} certified positive definite by {certificate}"]
        factors = [r for r in caplog.records if r.name == "polaronlab.factor"]
        assert len(factors) == (certificate == "inertia")


def test_spd_solver_shape_validation():
    solver = SpdSolver(*_split(np.eye(3)))
    with pytest.raises(ConfigError):
        solver.solve(np.ones(4))


def test_start_vector_deterministic():
    a = start_vector(40, 2024)
    b = start_vector(40, 2024)
    c = start_vector(40, 2025)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def d2_case():
    """H of d=2, K=1, h=0.5, gaussian g=0.1, ``nmax`` 3 (dim 2925) and its
    point group."""
    grid = pl.build_grid(2, 1.0, 0.5)
    ff = pl.sample_form_factor(grid, "gaussian", 0.1)
    basis = pl.enumerate_basis(grid.size, 3)
    return pl.assemble_hamiltonian(basis, grid, ff).matrix, pl.fock.symmetry(basis, grid, ff)


@pytest.fixture(scope="module")
def d2_instance(d2_case):
    return d2_case[0]


def test_count_below_inertia_matches_dense(d2_case):
    """Exact inertia counts every copy of a degenerate eigenvalue, for cuts
    between each pair of neighbouring distinct eigenvalues."""
    ham, symmetry = d2_case
    vals = np.linalg.eigvalsh(ham.toarray())
    low = vals[vals < vals[0] + 1.5]
    distinct = low[np.concatenate([[True], np.diff(low) > 1e-9])]
    assert distinct.size < low.size  # the window holds degenerate doublets
    for a, b in zip(distinct, distinct[1:]):
        cut = 0.5 * (a + b)
        assert pl.count_below(ham, symmetry, cut, 0.0) == int(np.sum(vals <= cut))


def test_near_doublet_stays_in_the_trivial_block(d2_case):
    """The near-doublet 1.239772/1.239773 of the d=2 gaussian instance lies
    in the trivial block: two eigenvalues 8e-7 apart in one block, both of
    which the block's list must hold for its inertia check to pass, in
    ``spectrum_summary`` and in ``eigenvalues_below``."""
    ham, symmetry = d2_case
    trivial = np.linalg.eigvalsh(symmetry.block_matrices(ham)[0].toarray())
    assert np.allclose(trivial[1:3], [1.2397718, 1.2397726], rtol=0, atol=1e-7)
    summary = pl.spectrum_summary(ham, symmetry, 6, SolverConfig(), 0.1)
    listed = summary["eigenvalues"]
    assert np.allclose(listed[:3], trivial[:3], rtol=0, atol=1e-10)
    assert summary["diagnostics"]["blocks"][0]["share"] == 3
    below = pl.spectral.eigenvalues_below(ham, symmetry, 1.24, SolverConfig())
    assert np.allclose(below, trivial[:3], rtol=0, atol=1e-10)


def test_count_below_refuses_uncertified_inertia():
    """A row with a zero shifted diagonal is kept for the Schur complement,
    where Bunch-Kaufman pivots it in a 2x2 block, so its count is certified:
    the ten eigenvalues -1 lie below 0; a cut on the eigenvalue 1 counts all
    twenty."""
    swap = sp.block_diag([np.array([[0.0, 1.0], [1.0, 0.0]])] * 10, format="csr")
    assert SymmetricFactor(swap, 0.5).negative_count == 10
    assert pl.count_below(swap, _trivial(20), 0.0, 0.0) == 10
    assert pl.count_below(swap, _trivial(20), 1.0, 0.0) == 20


def test_count_below_on_an_eigenvalue_matches_dense():
    """A cut exactly on an eigenvalue leaves zero pivots in the factor,
    which the count adds as the dense ``vals <= cut`` does; the singular
    factor still refuses to solve, ``SpdSolver`` still refuses the singular
    matrix, and ``eigenvalues_below`` still counts strictly.  A cut below
    the whole spectrum lists nothing, on the sparse list path too."""
    grid = pl.build_grid(1, 2.0, 0.5)
    basis = pl.enumerate_basis(grid.size, 3)
    zero = pl.sample_form_factor(grid, "gaussian", 0.0)
    free = pl.assemble_hamiltonian(basis, grid, zero).matrix
    blocks = pl.fock.symmetry(basis, grid, zero)
    cases = [(sp.diags([0.0, 1.0, 2.0, 3.0]), _trivial(4), 1.0, 0), (free, blocks, 1.25, 10)]
    for mat, symmetry, cut, threshold in cases:
        dense = int(np.sum(np.linalg.eigvalsh(mat.toarray()) <= cut))
        assert pl.count_below(mat, symmetry, cut, 0.0) == dense
        factor = SymmetricFactor(mat, cut)
        assert factor.zero_count > 0
        with pytest.raises(SolverError, match="singular"):
            factor.solve(np.ones(mat.shape[0]))
        config = SolverConfig(dense_threshold=threshold)
        strict = pl.spectral.eigenvalues_below(mat, symmetry, cut, config)
        assert len(strict) == dense - factor.zero_count
        shifted = sp.csr_matrix(mat - cut * sp.identity(mat.shape[0]))
        with pytest.raises(SolverError, match="singular"):
            SpdSolver(*_split(shifted))
    sparse = SolverConfig(dense_threshold=10)
    for mat, symmetry, cut in [
        (sp.diags(np.arange(1.0, 21.0)), _trivial(20), 0.5), (free, blocks, -0.5)
    ]:
        assert pl.count_below(mat, symmetry, cut, 0.0) == 0
        assert pl.spectral.eigenvalues_below(mat, symmetry, cut, sparse).shape == (0,)


#: instances (d, K, h, nmax, profile, g, alpha) with a double
#: eigenvalue among the lowest six, and their lowest six eigenvalues from
#: dense ``eigvalsh``, frozen: diagonalizing the three larger ones takes ~10 s
_DEGENERATE_ROWS = [
    (
        (2, 1.0, 0.5, 3, "constant", 0.5, 1.0),
        [-0.816377611026, 0.411023088283, 0.439472101434, 0.439472101434,
         0.440337270437, 0.567610747390],
    ),
    (
        (2, 1.0, 0.5, 3, "froehlich", 0.5, 0.5),
        [-1.026619916442, 0.228058786043, 0.276688873839, 0.276688873839,
         0.289396620051, 0.389575672811],
    ),
    (
        (2, 1.5, 0.5, 2, "gaussian", 0.5, 1.0),
        [-0.220208160408, 1.034719223559, 1.057708270882, 1.057708270882,
         1.061223672049, 1.261479360672],
    ),
    (
        # the sixth value cuts through a triple eigenvalue: a legitimate tie
        (3, 1.0, 1.0, 3, "constant", 0.1, 1.0),
        [-0.090502822906, 1.760595750557, 1.760644916038, 1.760644916038,
         1.886059405569, 1.886059405569],
    ),
]


def _instance(d, K, h, nmax, profile, g, alpha):
    grid = pl.build_grid(d, K, h)
    ff = pl.sample_form_factor(grid, profile, g, alpha=alpha)
    basis = pl.enumerate_basis(grid.size, nmax)
    return grid, ff, basis, pl.assemble_hamiltonian(basis, grid, ff).matrix


@pytest.mark.parametrize("row, truth", _DEGENERATE_ROWS)
def test_sparse_lists_keep_degenerate_copies(row, truth):
    """Shift-invert Lanczos alone lists each of these double eigenvalues
    once; the inertia at the list's interlacing cut finds the missing
    copies.
    The block lists, the block counts at each cut between distinct values,
    and the eigenvalues below those cuts are the dense ones too."""
    grid, ff, basis, ham = _instance(*row)
    if basis.dim == 1225:
        assert np.allclose(np.linalg.eigvalsh(ham.toarray())[:6], truth, rtol=0, atol=1e-11)
    pairs = pl.lowest_eigenpairs(ham, 6, SolverConfig())
    assert pairs.method == "shift-invert"
    assert np.allclose(pairs.values, truth, rtol=0, atol=1e-10)
    gram = pairs.vectors.T @ pairs.vectors
    assert np.allclose(gram, np.eye(6), rtol=0, atol=1e-8)
    symmetry = pl.fock.symmetry(basis, grid, ff)
    summary = pl.spectrum_summary(ham, symmetry, 6, SolverConfig(), 0.1)
    assert np.allclose(summary["eigenvalues"], truth, rtol=0, atol=1e-10)
    for j in np.flatnonzero(np.diff(truth) > 1e-9):
        cut = 0.5 * (truth[j] + truth[j + 1])
        assert pl.count_below(ham, symmetry, cut, 0.0) == j + 1
    below = pl.spectral.eigenvalues_below(ham, symmetry, cut, SolverConfig())
    assert np.allclose(below, truth[: j + 1], rtol=0, atol=1e-10)


def test_doublet_splits_across_two_blocks(degenerate_blocks):
    """At d=2, constant g=0.5, ``nmax`` 3 the double eigenvalue 0.439472 is
    one copy in each block odd under exactly one axis flip, and no other
    block holds it; the ``spectrum`` list still holds both copies."""
    ham, symmetry = degenerate_blocks
    # each element's flipped axes, from the moved mode of the first grid mode
    # (-K, -K): axis i is flipped where that mode's coordinate i changes sign
    first = pl.build_grid(2, 1.0, 0.5).index
    flipped = np.array([first[symmetry.mode_perms[g][0]] > 0 for g in symmetry.flips])
    holding = []
    for chi, block in zip(symmetry.characters, symmetry.block_matrices(ham)):
        vals = np.linalg.eigvalsh(block.toarray())
        if np.any(np.abs(vals - 0.439472101434) < 1e-9):
            # the character's sign under the flip of each single axis
            holding.append(tuple(int(chi[np.flatnonzero((flipped == axes).all(axis=1))[0]])
                                 for axes in ([True, False], [False, True])))
    assert sorted(holding) == [(-1, 1), (1, -1)]
    summary = pl.spectrum_summary(ham, symmetry, 6, SolverConfig(), 0.1)
    assert np.count_nonzero(np.abs(summary["eigenvalues"] - 0.439472101434) < 1e-9) == 2
    assert [b["share"] for b in summary["diagnostics"]["blocks"]] == [3, 1, 1, 1]


@pytest.fixture(scope="module")
def degenerate_blocks():
    """H of the first degenerate row (d=2, constant g=0.5, ``nmax`` 3, dim
    2925) and its point group."""
    grid, ff, basis, ham = _instance(*_DEGENERATE_ROWS[0][0])
    return ham, pl.fock.symmetry(basis, grid, ff)


def test_eigenvalues_below_certifies_its_list_by_its_count(degenerate_blocks, caplog):
    """``eigenvalues_below`` lists both copies of the double eigenvalue
    below its threshold, and each block's count at the threshold certifies
    that block's list: in each block one factor counts, one drives Lanczos
    if the count is not 0, and no third is built."""
    ham, symmetry = degenerate_blocks
    truth = _DEGENERATE_ROWS[0][1]
    with caplog.at_level(logging.DEBUG, logger="polaronlab.factor"):
        vals = pl.spectral.eigenvalues_below(ham, symmetry, 0.5, SolverConfig())
    assert np.allclose(vals, truth[:5], rtol=0, atol=1e-10)
    labels = [r.getMessage().split(":")[0] for r in caplog.records if r.name == "polaronlab.factor"]
    counted, lanczos = "factor eigenvalue list", "factor shift-invert operator"
    # the trivial block holds three values below 0.5, the two blocks odd
    # under one flip a copy of the doublet each, the fourth block none
    assert labels == [counted, lanczos] * 3 + [counted]


def test_list_factors_at_its_cut_then_once_for_lanczos(
    degenerate_blocks, live_factors, monkeypatch
):
    """``lowest_eigenpairs`` with several pairs factors once at its
    interlacing cut, then once for shift-invert Lanczos, and never again:
    on the first degenerate instance, whose list of six holds the double
    eigenvalue, and on the free d=2 ``nmax`` 3 instance at
    ``dense_threshold=10``, whose cut above a 16-fold eigenvalue takes
    deflated runs, all on that one factor."""
    cut, lanczos = "eigenvalue list", "shift-invert operator"
    pairs = pl.lowest_eigenpairs(degenerate_blocks[0], 6, SolverConfig())
    assert np.allclose(pairs.values, _DEGENERATE_ROWS[0][1], rtol=0, atol=1e-10)
    assert live_factors.built == [cut, lanczos]
    runs = []
    lanczos_run = pl.spectral._lanczos

    def counted_run(mat, count, *args):
        runs.append(count)
        return lanczos_run(mat, count, *args)

    monkeypatch.setattr(pl.spectral, "_lanczos", counted_run)
    grid = pl.build_grid(2, *_DENSE_GRIDS[2])
    ff = pl.sample_form_factor(grid, "gaussian", 0.0)
    ham = pl.assemble_hamiltonian(pl.enumerate_basis(grid.size, 3), grid, ff).matrix
    live_factors.built.clear()
    pairs = pl.lowest_eigenpairs(ham, 6, SolverConfig(dense_threshold=10))
    assert np.allclose(pairs.values, [0.0] + [2.0] * 5, rtol=0, atol=1e-12)
    assert live_factors.built == [cut, lanczos]
    assert len(runs) > 1 and runs[0] == 25


def test_eigenvalue_lists_hold_one_factor_at_a_time(degenerate_blocks, live_factors):
    """No ``SymmetricFactor`` is built while another is alive.  On the first
    degenerate instance ``spectrum_summary`` has each of the four blocks
    factor at the cut and then for Lanczos, each tail gap on the trivial
    block (dims 776 and 768, above the default threshold) factor once, and
    each block factor once more for the window count.  On a d=1 instance at
    ``dense_threshold=10``, the two block lists, both tail gaps and the
    two window counts factor in turn.  ``eigenvalues_below`` factors each
    block at its threshold, then for Lanczos where that count is not 0."""
    ham, symmetry = degenerate_blocks
    truth = _DEGENERATE_ROWS[0][1]
    lanczos, cut, counted = "shift-invert operator", "eigenvalue list", "counted operator"
    summary = pl.spectrum_summary(ham, symmetry, 6, SolverConfig(), 0.1)
    assert np.allclose(summary["eigenvalues"], truth, rtol=0, atol=1e-10)
    assert live_factors.built == [cut, lanczos] * 4 + [lanczos] * 2 + [counted] * 4
    live_factors.built.clear()
    vals = pl.spectral.eigenvalues_below(ham, symmetry, 0.5, SolverConfig())
    assert np.allclose(vals, truth[:5], rtol=0, atol=1e-10)
    assert live_factors.built == [cut, lanczos] * 3 + [cut]
    grid, ff, basis, ham = _instance(1, 2.0, 0.5, 3, "gaussian", 0.1, 1.0)
    live_factors.built.clear()
    cfg = SolverConfig(dense_threshold=10)
    summary = pl.spectrum_summary(ham, pl.fock.symmetry(basis, grid, ff), 6, cfg, 0.1)
    assert [b["method"] for b in summary["diagnostics"]["blocks"]] == ["shift-invert"] * 2
    assert live_factors.built == [cut, lanczos] * 2 + [lanczos] * 2 + [counted] * 2
    assert len(live_factors.live) == 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    profile=st.sampled_from(pl.grid.PROFILES),
    g=st.just(0.0) | st.floats(0.05, 1.5),
    nmax=st.sampled_from([2, 3]),
    count=st.integers(2, 9),
    xi=st.sampled_from([None, (0.6, 0.0)]),
)
def test_sparse_lists_match_dense_on_degenerate_draws(profile, g, nmax, count, xi):
    """On the d=2 grid, whose point group gives double eigenvalues, the
    sparse list (``dense_threshold=10``) is the dense one, every copy
    included; a count that cuts through a multiple eigenvalue is fine.  At
    g = 0, H is diagonal: the factor eliminates every row, and the free
    spectrum's fourfold eigenvalues need several deflated runs.  The
    character-block list, count and eigenvalues below a cut are the dense
    ones too, at xi = 0 (four blocks) and at xi = (0.6, 0) (two)."""
    grid = pl.build_grid(2, *_DENSE_GRIDS[2])
    basis = pl.enumerate_basis(grid.size, nmax)
    ff = pl.sample_form_factor(grid, profile, g, alpha=0.5)
    ham = pl.assemble_hamiltonian(basis, grid, ff, xi=xi).matrix
    vals = np.linalg.eigvalsh(ham.toarray())
    truth = vals[:count]
    config = SolverConfig(dense_threshold=10)
    pairs = pl.lowest_eigenpairs(ham, count, config)
    assert pairs.method == "shift-invert"
    assert np.allclose(pairs.values, truth, rtol=0, atol=1e-9)
    symmetry = pl.fock.symmetry(basis, grid, ff, xi)
    assert len(symmetry.characters) == (4 if xi is None else 2)
    summary = pl.spectrum_summary(ham, symmetry, count, config, 0.1)
    assert np.allclose(summary["eigenvalues"], truth, rtol=0, atol=1e-9)
    # the first clear gap at or above the count-th eigenvalue
    gaps = np.flatnonzero(np.diff(vals) > 1e-6)
    j = gaps[gaps >= count - 1][0]
    cut = 0.5 * (vals[j] + vals[j + 1])
    assert pl.count_below(ham, symmetry, cut, 0.0) == j + 1
    below = pl.spectral.eigenvalues_below(ham, symmetry, cut, config)
    assert np.allclose(below, vals[: j + 1], rtol=0, atol=1e-9)


def _factored_matrix(d, xi, profile, g, nmax, which, tail, k):
    """One matrix of the kinds ``SymmetricFactor`` serves besides H itself
    (see ``test_hamiltonian_symmetric_and_sparse_counts_match_dense``): a
    ``restricted_matrix`` tail at momentum ``k``, or the trivial block
    ``Q_0^T H Q_0``, the flip-invariant sector, and one of its trailing
    blocks."""
    grid = pl.build_grid(d, *_DENSE_GRIDS[d])
    ff = pl.sample_form_factor(grid, profile, g, alpha=0.5)
    if which == "tail":
        ws = pl.build_workspace(grid, ff, nmax, xi=xi)
        kind = (pl.reduction.TAIL_ONE, pl.reduction.TAIL_TWO)[tail - 1]
        return ws.restricted_matrix(kind, np.full(d, k), 0.3)
    basis = pl.enumerate_basis(grid.size, nmax)
    ham = pl.assemble_hamiltonian(basis, grid, ff, xi=xi).matrix
    symmetry = pl.fock.symmetry(basis, grid, ff, xi)
    column = symmetry.tail_column(tail) if tail else 0
    return symmetry.block_matrix(ham, 0)[column:, column:]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from([(1, None), (2, None), (2, (0.6, 0.0))]),
    profile=st.sampled_from(pl.grid.PROFILES),
    g=st.floats(0.05, 1.5),
    nmax=st.sampled_from([2, 3]),
    which=st.sampled_from(["tail", "sector"]),
    tail=st.sampled_from([0, 1, 2]),
    k=st.floats(-0.7, 0.7),
    position=st.floats(-0.1, 1.1),
)
def test_factor_inertia_and_solve_match_dense(
    shape, profile, g, nmax, which, tail, k, position
):
    """The Schur-complement factor's negative count is the dense count of
    eigenvalues below the shift, and its solve is the dense solve, on the
    tails and the trivial-block matrices the package factors besides H
    (d=1, 2, with and without a fiber shift); the shift stays at least 1e-8
    from every eigenvalue."""
    d, xi = shape
    tail = max(tail, 1) if which == "tail" else tail
    mat = _factored_matrix(d, xi, profile, g, nmax, which, tail, k)
    dense = mat.toarray()
    vals = np.linalg.eigvalsh(dense)
    shift = vals[0] + position * (vals[-1] - vals[0])
    distance = np.min(np.abs(vals - shift))
    assume(distance >= 1e-8)
    factor = SymmetricFactor(mat, shift)
    assert factor.negative_count == int(np.sum(vals < shift))
    if distance >= 1e-2:  # well conditioned enough for the residual bound
        rhs = start_vector(mat.shape[0], 11)
        exact = np.linalg.solve(dense - shift * np.eye(mat.shape[0]), rhs)
        assert np.allclose(factor.solve(rhs), exact, rtol=0, atol=1e-9 * np.abs(exact).max())


def test_factor_on_a_generic_sparse_matrix():
    """A random sparse symmetric matrix whose pattern has odd cycles, so it
    is not bipartite: counts at cuts between its eigenvalues, and a solve,
    match the dense ones."""
    rng = np.random.RandomState(3)
    upper = sp.random(60, 60, density=0.08, random_state=rng, format="csr")
    mat = (upper + upper.T + sp.diags(rng.uniform(-2.0, 2.0, 60))).tocsr()
    dense = mat.toarray()
    triangle = (dense != 0) & (np.linalg.matrix_power((dense != 0).astype(int), 2) > 0)
    assert np.any(triangle & ~np.eye(60, dtype=bool))  # a closed walk of length 3
    vals = np.linalg.eigvalsh(dense)
    for j in range(0, 59, 7):
        cut = 0.5 * (vals[j] + vals[j + 1])
        assert SymmetricFactor(mat, cut).negative_count == j + 1
    cut = 0.5 * (vals[29] + vals[30])
    rhs = start_vector(60, 4)
    exact = np.linalg.solve(dense - cut * np.eye(60), rhs)
    assert np.allclose(SymmetricFactor(mat, cut).solve(rhs), exact, rtol=0, atol=1e-10)


def test_factor_eliminates_the_top_parity_class(d2_instance):
    """On H, ordered by boson number, the eliminated rows are exactly the
    sectors of the top sector's boson-number parity."""
    basis = pl.enumerate_basis(24, 3)
    parity = basis.boson_counts() % 2 == basis.nmax % 2
    assert np.array_equal(pl.spectral._eliminated_rows(d2_instance.tocsr()), parity)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dim=st.integers(1, 14), data=st.data())
def test_eliminated_rows_match_the_greedy_oracle(dim, data):
    """The rows ``SymmetricFactor`` eliminates are those of the descending
    greedy walk of ``oracles.eliminated_rows``, on symmetric matrices with
    zero, tiny and mixed-sign diagonals, whether their zeros are stored or
    not."""
    diagonal = data.draw(st.lists(
        st.sampled_from([0.0, 1e-300, -1e-12, 0.5, -1.0, 3.0, -4.5]), min_size=dim, max_size=dim
    ))
    entries = data.draw(st.lists(
        st.sampled_from([0.0, 0.0, 0.0, 1e-3, -0.7, 1.0, 2.5]), min_size=dim**2, max_size=dim**2
    ))
    upper = np.triu(np.reshape(entries, (dim, dim)), 1)
    dense = upper + upper.T + np.diag(diagonal)
    expected = oracles.eliminated_rows(dense.tolist())
    stored = sp.csr_matrix((dense.ravel(), np.indices(dense.shape).reshape(2, -1)), shape=dense.shape)
    assert stored.nnz == dim**2
    for mat in (sp.csr_matrix(dense), stored):
        assert np.array_equal(pl.spectral._eliminated_rows(mat), expected)


def test_factor_logs_one_event_per_build(d2_instance, caplog):
    """Each build emits one DEBUG event on ``polaronlab.factor``, a child of
    the ``polaronlab`` logger: label, dimension and shift, eliminated and
    kept rows, negative count and seconds."""
    with caplog.at_level(logging.DEBUG, logger="polaronlab"):
        factor = SymmetricFactor(d2_instance, 0.5, label="probe")
    [event] = [r for r in caplog.records if r.name == "polaronlab.factor"]
    assert event.levelno == logging.DEBUG
    kept = int(np.sum(pl.enumerate_basis(24, 3).boson_counts() % 2 == 0))
    message = event.getMessage()
    assert message.startswith(
        f"factor probe: dim 2925 at shift 0.5, {2925 - kept} eliminated, {kept} kept, "
        f"{factor.negative_count} negative, "
    )
    assert message.endswith(" s")
    assert logging.getLogger("polaronlab").handlers == []


def test_factor_above_the_cap_is_refused(degenerate_instance, monkeypatch):
    """More kept rows than ``SCHUR_CAP`` is a ``SolverError`` raised before
    the dense Schur complement is formed; at the cap the factor still runs."""
    mat = degenerate_instance
    kept = int(np.count_nonzero(~pl.spectral._eliminated_rows(mat.tocsr())))
    monkeypatch.setattr(pl.spectral, "SCHUR_CAP", kept - 1)
    with pytest.raises(SolverError, match=f"keeps {kept} of 325 rows .* above SCHUR_CAP"):
        SymmetricFactor(mat, 0.0)
    with pytest.raises(SolverError, match="SCHUR_CAP"):
        pl.count_below(mat, _trivial(325), 0.0, 0.0)
    monkeypatch.setattr(pl.spectral, "SCHUR_CAP", kept)
    below = int(np.sum(np.linalg.eigvalsh(mat.toarray()) < 0.0))
    assert SymmetricFactor(mat, 0.0).negative_count == below


def _factor_events(caplog):
    """``(label, dim, shift, kept)`` of each ``polaronlab.factor`` event."""
    pattern = r"factor (.+): dim (\d+) at shift (\S+), \d+ eliminated, (\d+) kept, .*"
    events = []
    for record in caplog.records:
        if record.name == "polaronlab.factor":
            label, dim, shift, kept = re.fullmatch(pattern, record.getMessage()).groups()
            events.append((label, int(dim), float(shift), int(kept)))
    return events


def _list_and_count(ham, symmetry, caplog):
    """The ``spectrum`` level's list of six with its window count, and the
    equivalence report's eigenvalues below ``e0 + 1``, with their factor
    events."""
    config = SolverConfig()
    with caplog.at_level(logging.DEBUG, logger="polaronlab.factor"):
        summary = pl.spectrum_summary(ham, symmetry, 6, config, config.buffer(0.25))
        e0 = summary["eigenvalues"][0]
        pl.spectral.eigenvalues_below(ham, symmetry, e0 + 1.0, config)
    return _factor_events(caplog)


def test_fine_lists_and_counts_keep_half_the_rows(caplog):
    """On the fine d=1 instance (K=2, h=0.25, gaussian g=0.065295) at
    ``nmax`` 4 (dim 4845, blocks 2445 and 2400), no factor of the list, the
    count or the eigenvalues below keeps more than 416 rows; a factor of
    the whole space keeps 832."""
    grid, ff, basis, ham = _instance(1, 2.0, 0.25, 4, "gaussian", 0.065295, 1.0)
    symmetry = pl.fock.symmetry(basis, grid, ff)
    assert [symmetry.block(c).shape[1] for c in range(2)] == [2445, 2400]
    events = _list_and_count(ham, symmetry, caplog)
    assert {label for label, *_ in events} == {
        "counted operator", "eigenvalue list", "shift-invert operator"
    }
    assert max(kept for *_, kept in events) == 416
    assert SymmetricFactor(ham, 0.5)._rows_k.size == 832


def test_paper_model_factors_keep_at_most_a_block(caplog):
    """On the paper's model (d=3, K=h=1, froehlich alpha=1, g=0.1) at
    ``nmax`` 3 (dim 3654, eight blocks), no factor of the list, the count or
    the eigenvalues below keeps more rows than the largest block keeps at
    the same shift, far fewer than a factor of the whole space there."""
    grid, ff, basis, ham = _instance(3, 1.0, 1.0, 3, "froehlich", 0.1, 1.0)
    symmetry = pl.fock.symmetry(basis, grid, ff)
    blocks = symmetry.block_matrices(ham)
    assert len(blocks) == 8 and sum(b.shape[0] for b in blocks) == basis.dim
    events = _list_and_count(ham, symmetry, caplog)

    def kept(mat, shift):
        shifted = (mat - shift * sp.identity(mat.shape[0], format="csr")).tocsr()
        return int(np.count_nonzero(~pl.spectral._eliminated_rows(shifted)))

    for label, dim, shift, rows in events:
        largest = max(kept(block, shift) for block in blocks)
        assert rows <= largest < kept(ham, shift) / 4, (label, dim, shift)
