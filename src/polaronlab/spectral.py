"""Eigenvalue and linear solvers for real symmetric matrices, scipy sparse
or dense ndarrays alike.

Every eigenvalue count rests on inertias, one ``SymmetricFactor`` of
``Q^T A Q - shift`` per character block of the instance's sign-flip
subgroup (``fock.Symmetry.block``): ``A`` commutes with the group, so it
is block diagonal in the blocks and the sum is exact (Sylvester's law of
inertia); the inertia of one factor also gives definiteness.  Each
block's list of its eigenvalues below a cut known before any Lanczos run
(``_interlacing_cut``) is certified by its inertia there, so no copy of
a multiple eigenvalue goes missing, and the merged lists count any
window that the cut clears; a trivial group gives one block.  Lists at
or below ``dense_threshold`` (``SolverConfig``) come from the MRRR
routine ``syevr`` (Dhillon & Parlett, Linear Algebra Appl. 387, 2004),
the built-in oracle of the sparse path; above it shift-invert Lanczos
(Ericsson & Ruhe, Math. Comp. 35, 1980) runs on ``SpdSolver``'s Jacobi
PCG solves, with no dense copy of the matrix and no factor, so a factor
only counts.  ``Phi`` changes the boson number by one, so the factor
eliminates an uncoupled set of rows by their diagonal and factors the
dense Schur complement on the rest with Bunch-Kaufman pivoting; inertia
is additive over a Schur complement (Haynsworth, Linear Algebra Appl. 1,
1968; Bunch & Kaufman, Math. Comp. 31, 1977).  A complement of more than
``SCHUR_CAP`` rows is a ``SolverError``; a singular factor counts its
zero pivots, the eigenvalues at its shift.  ``SpdSolver`` also serves
the resolvents of ``reduction``: it certifies definiteness by strict
diagonal dominance, else as an M-matrix in the sign gauge below, else by
a transient factor's inertia, and every solve must pass a true-residual
check.

The ground energy ``e0`` and the tail gaps ``nu(n)`` are solved on the
trivial character block ``Q_0^T H Q_0`` alone, which their caller forms
once: the range of ``Q_0 = Symmetry.block(0)``,
whose columns are the normalized orbit sums of the sign flips that fix
``xi`` and the form factor, ordered by lowest state.  That block holds
the bottom of H and of each of its ``>= n`` tails.  In the sign gauge
``s(n) = (-1)^N(n) prod_k sign(v_k)^{n_k}`` (sign(0) = +1) every
off-diagonal entry of the fiber Hamiltonian is ``-|v_k| sqrt(m) <= 0``,
so H and each tail, a principal submatrix, are symmetric Z-matrices.  By
Perron-Frobenius the lowest eigenvalue of such a matrix has an eigenvector
``x >= 0`` (Berman & Plemmons, *Nonnegative Matrices in the Mathematical
Sciences*, SIAM 1994, ch. 6; for polarons, Gerlach & Löwen, Rev. Mod.
Phys. 63, 63, 1991).  A sign flip keeps ``N``, the tails and ``sign(v)``,
so it commutes with the gauge; the flip average of ``s x`` is then ``s``
times the average of ``x >= 0``, which is nonzero, and it is a
flip-invariant eigenvector at the lowest eigenvalue.  So ``Q_0^T H Q_0``
and its trailing blocks (``Symmetry.tail_column``) have the same minima
as H and its tails, on a space smaller by up to the flip order.  A
trivial group makes ``Q_0`` the identity.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dsytrf, dsytrf_lwork

from .errors import ConfigError, IndefiniteOperatorError, SolverError
from .fock import DEFAULT_SEED, Symmetry

_log = logging.getLogger("polaronlab")
_factor_log = logging.getLogger("polaronlab.factor")

#: Lanczos convergence tolerance
EIG_TOL = 1e-10
#: relative true-residual bound of every linear solve
LIN_TOL = 1e-12
#: iteration cap of Lanczos and conjugate gradients
MAX_ITERATIONS = 5000
#: most kept rows whose Schur complement ``SymmetricFactor`` holds densely:
#: 16384^2 doubles are 2.1 GB; more is a ``SolverError``
SCHUR_CAP = 16384
#: shift-invert shift below the Gershgorin bound: each row of ``B - sigma`` is
#: diagonally dominant by this much, so PCG solves it; nearer than 1, Lanczos
#: takes fewer solves
SHIFT_MARGIN = 0.25
#: deflated Lanczos runs a sparse eigenvalue list may take to find the copies
#: of multiple eigenvalues that its inertia check says are missing
LIST_TRIES = 8
#: Bunch-Kaufman's 1x1 pivot bound ``(1 + sqrt 17) / 8``: a row is eliminated
#: by its diagonal only if that is this large against its other entries
_PIVOT_RATIO = (1.0 + 17.0**0.5) / 8.0


@dataclass(frozen=True)
class SolverConfig:
    """The largest matrix solved densely, 200 by default (no config entry
    sets it): an eigenpair list of a larger one leaves dense ``syevr`` for
    shift-invert Lanczos, which holds no dense n x n copy, and a list's
    interlacing cut reads the leading ``max(count, dense_threshold)`` rows
    of each block densely (``_interlacing_cut``); and the seed of the
    iterative solvers' start vectors, defaulting to ``fock.DEFAULT_SEED``.
    The tolerances are the module constants ``EIG_TOL``, ``LIN_TOL`` and
    ``MAX_ITERATIONS``.  200 was the crossover against shift-invert on a
    Bunch-Kaufman factor, a path that is gone; against PCG it lies between
    dims 255 and 489.  Per list, ms for 4 pairs and for 1 (dense / factor /
    PCG), one BLAS thread: dim 255: 2.9/4.9/16.7, 3.4/2.3/4.9; dim 489:
    10.5/3.3/6.1, 9.7/2.5/3.9; dim 777: 33.9/4.7/8.1, 32.3/3.0/4.8."""

    dense_threshold: int = 200
    seed: int = DEFAULT_SEED

    def buffer(self, h: float) -> float:
        """Edge buffer for eigenvalue counting: ``max(min(h^2, 1/2), 10 * EIG_TOL)``.

        Capped below the window width 1, so the count cut ``e0 + 1 - buffer``
        stays above ``e0`` on coarse grids too."""
        return max(min(h * h, 0.5), 10.0 * EIG_TOL)


def _dense(mat) -> np.ndarray:
    if sp.issparse(mat):
        return mat.toarray()
    return np.asarray(mat, dtype=float)


def _gershgorin_lower(mat) -> float:
    """Rigorous lower bound for the spectrum of a symmetric matrix."""
    m = sp.csr_matrix(mat)
    diag = m.diagonal()
    radii = np.asarray(np.abs(m).sum(axis=1)).ravel() - np.abs(diag)
    return float(np.min(diag - radii))


def start_vector(dim: int, seed: int) -> np.ndarray:
    """Deterministic unit start vector for iterative solvers."""
    rng = np.random.RandomState(seed)
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _eliminated_rows(shifted: sp.csr_matrix) -> np.ndarray:
    """Mask of the rows that ``SymmetricFactor`` eliminates by their own
    diagonal: an independent set of the sparsity pattern, chosen greedily by
    descending index among the rows whose diagonal passes Bunch-Kaufman's
    1x1 pivot test.

    The greedy pass runs in rounds: a row joins once every higher row it is
    coupled to has been decided, and none of them joined.  On a basis ordered
    by boson number, where ``Phi`` only couples adjacent sectors, that takes
    about ``nmax / 2`` rounds and picks the parity class of the top sector.
    """
    dim, diag = shifted.shape[0], shifted.diagonal()
    rows = np.repeat(np.arange(dim), np.diff(shifted.indptr))
    off = (rows != shifted.indices) & (shifted.data != 0.0)
    rows, cols = rows[off], shifted.indices[off]
    largest = np.zeros(dim)
    np.maximum.at(largest, rows, np.abs(shifted.data[off]))
    undecided = (diag != 0.0) & (np.abs(diag) >= _PIVOT_RATIO * largest)
    higher = cols > rows
    rows, cols = rows[higher], cols[higher]
    chosen = np.zeros(dim, dtype=bool)
    while undecided.any():
        # rows coupled to a chosen higher row, then to an undecided one
        blocked = np.zeros(dim, dtype=bool)
        blocked[rows[chosen[cols]]] = True
        undecided &= ~blocked
        waiting = np.zeros(dim, dtype=bool)
        waiting[rows[undecided[cols]]] = True
        ready = undecided & ~waiting
        chosen |= ready
        undecided &= ~ready
    return chosen


class SymmetricFactor:
    """The exact inertia of ``A - shift * I`` from a symmetric indefinite
    factorization: ``negative_count`` and ``zero_count``, the eigenvalues
    below and at ``shift``, and nothing else.

    Every matrix this package factors is a diagonal plus ``Phi``, or its
    restriction to a character block or a tail, and ``Phi`` changes
    the boson number by one; so many rows couple to none of each other
    (``_eliminated_rows``).  Those rows E are eliminated by their diagonal
    ``D_E``, which leaves the dense Schur complement
    ``S = A_KK - A_KE D_E^-1 A_EK`` on the kept rows K.
    Inertia is additive over a Schur complement (Haynsworth, Linear Algebra
    Appl. 1, 1968), so the eigenvalues below ``shift`` number the negative
    entries of ``D_E`` plus the negative eigenvalues of ``S``.  LAPACK's
    ``sytrf`` factors ``S = U D U^T`` with Bunch-Kaufman pivoting, whose
    block diagonal ``D`` has the inertia of ``S`` (Bunch & Kaufman, Math.
    Comp. 31, 1977): each 1x1 block counts by its sign, each 2x2 block has
    one negative eigenvalue.  An exactly zero 1x1 block, after which
    ``sytrf`` still completes the factor, is an eigenvalue at ``shift``:
    ``zero_count`` counts them, and ``negative_count`` leaves them out.
    The shifted matrix, its blocks and the factor are all transient.
    The dense ``S`` takes ``8 K^2`` bytes, so more than ``SCHUR_CAP`` kept
    rows are refused before it is formed, a ``SolverError``.  Each build
    emits one DEBUG event on the ``polaronlab.factor`` logger, a child of
    ``polaronlab``: the label, dimension and shift, the eliminated and kept
    row counts, the negative count and the seconds taken.
    """

    def __init__(self, mat, shift: float, label: str = "operator"):
        started = time.perf_counter()
        dim = mat.shape[0]
        shifted = (sp.csr_matrix(mat) - shift * sp.identity(dim, format="csr")).tocsr()
        eliminated = _eliminated_rows(shifted)
        rows_e, rows_k = np.flatnonzero(eliminated), np.flatnonzero(~eliminated)
        if rows_k.size > SCHUR_CAP:
            raise SolverError(
                f"{label} keeps {rows_k.size} of {dim} rows for its dense Schur complement "
                f"({8e-9 * rows_k.size**2:.1f} GB), above SCHUR_CAP = {SCHUR_CAP}"
            )
        by_k = shifted[rows_k]
        pivots = shifted.diagonal()[rows_e]
        a_ke = by_k[:, rows_e]
        schur = by_k[:, rows_k] - a_ke @ sp.diags(1.0 / pivots) @ a_ke.T.tocsr()
        # S is symmetric, so its C-ordered array read in Fortran order is S
        # again, and LAPACK factors it in place
        lwork = max(int(dsytrf_lwork(rows_k.size)[0]), 1)
        ldu, ipiv, _ = dsytrf(schur.toarray().T, lwork=lwork, overwrite_a=True)
        blocks = ldu.diagonal()[ipiv > 0]
        self.zero_count = int(np.count_nonzero(blocks == 0.0))
        self.negative_count = int(
            np.count_nonzero(pivots < 0)
            + np.count_nonzero(blocks < 0)
            + np.count_nonzero(ipiv < 0) // 2
        )
        _factor_log.debug(
            "factor %s: dim %d at shift %r, %d eliminated, %d kept, %d negative, %.4f s",
            label, dim, float(shift), rows_e.size, rows_k.size, self.negative_count,
            time.perf_counter() - started,
        )


class Eigenpairs(NamedTuple):
    """Ascending eigenpairs with their residuals ``|A x - lam x|`` and the
    path taken: ``"dense"``, or ``"shift-invert"`` with ``iterations``
    shift-invert solves, each by Jacobi PCG (``None`` for a block list of
    no pairs)."""

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    method: Optional[str]
    iterations: int


def lowest_eigenpairs(mat, count: int, config: SolverConfig) -> Eigenpairs:
    """``count`` smallest eigenpairs of a real symmetric matrix, sparse or
    dense.

    At or below ``dense_threshold``, or when nearly every pair is asked
    for, LAPACK's ``syevr`` computes only the lowest ``count`` pairs; above
    it, shift-invert Lanczos on Jacobi PCG solves (``_lowest``).  Every
    returned pair is certified by its residual; one above tolerance is a
    ``SolverError``.

    Lanczos from one start vector finds the extra copies of a multiple
    eigenvalue only through rounding, so a sparse list of several pairs is
    also certified by inertia: ``_interlacing_cut`` gives a cut with at
    least ``count`` eigenvalues below it before any Lanczos run, a
    transient factor there counts them, and that many pairs are listed
    (``_lists_below``), of which the lowest ``count`` are returned.  A
    multiple eigenvalue that ``count`` cuts through at the top of the list
    is legitimate.  A single pair has no copies to miss and is certified
    by its residual alone.
    """
    dim = mat.shape[0]
    if count < 1 or count > dim:
        raise ConfigError(f"cannot compute {count} eigenpairs of a dim-{dim} operator")
    if count == 1 or dim <= config.dense_threshold or count >= dim - 1:
        return _lowest(mat, count, config, None)
    [pairs] = _lists_below([mat], _interlacing_cut([mat], count, config, 0.0), config)
    return Eigenpairs(
        pairs.values[:count], pairs.vectors[:, :count], pairs.residuals[:count],
        pairs.method, pairs.iterations,
    )


def _lowest(mat, count: int, config: SolverConfig, cut: Optional[float]) -> Eigenpairs:
    """The lowest ``count`` eigenpairs, dense or by shift-invert Lanczos as
    in ``lowest_eigenpairs``; a sparse list is certified by the inertia
    ``count`` at ``cut``, or, for one pair (``cut`` None), by its residual
    alone.

    At ``sigma = _gershgorin_lower(mat) - SHIFT_MARGIN`` the matrix
    ``mat - sigma`` is strictly diagonally dominant with a positive
    diagonal, hence positive definite (Horn & Johnson, *Matrix Analysis*,
    6.1): one ``SpdSolver`` certifies that and applies its inverse.
    Values the list lacks below the cut are asked for again from Lanczos
    on that inverse deflated by the pairs already found, whose start
    vector then has a component along each of them; up to ``LIST_TRIES``
    such runs, else ``SolverError``, as are more listed values below the
    cut than its inertia.  ``iterations`` counts the solves of every run."""
    dim = mat.shape[0]
    if dim <= config.dense_threshold or count >= dim - 1:
        vals, vecs = sla.eigh(_dense(mat), subset_by_index=[0, count - 1])
        residuals = _certified_residuals(mat, vals, vecs, "dense")
        return Eigenpairs(vals, vecs, residuals, "dense", 0)
    # Shift-invert around a point strictly below the spectrum.  Plain
    # smallest-algebraic Lanczos silently loses eigenvectors the matrix
    # (nearly) annihilates, because their Krylov components never grow;
    # the inverted operator makes the low end dominant instead.
    csr = sp.csr_matrix(mat)
    sigma, diag = _gershgorin_lower(csr) - SHIFT_MARGIN, csr.diagonal()
    shifted = diag - sigma
    solver = SpdSolver(csr - sp.diags(diag, format="csr"), lambda: shifted, "shift-invert operator")
    solves = 0

    def solve(x: np.ndarray) -> np.ndarray:
        nonlocal solves
        solves += 1
        return solver.solve(x)

    start = start_vector(dim, config.seed)
    vals, vecs = _lanczos(mat, count, sigma, solve, start)
    runs = 0
    while True:
        # a value at or above the cut stands for no eigenvalue of the list,
        # but its vector still deflates the next run
        kept = np.full(len(vals), True) if cut is None else vals < cut
        residuals = _certified_residuals(mat, vals[kept], vecs[:, kept], "shift-invert")
        listed = len(residuals)
        if listed > count:
            raise SolverError(
                f"{listed} eigenvalues listed below {cut!r}, but its inertia is {count}"
            )
        if listed == count:
            return Eigenpairs(vals[kept], vecs[:, kept], residuals, "shift-invert", solves)
        if runs == LIST_TRIES:
            raise SolverError(
                f"shift-invert Lanczos still misses {count - listed} eigenvalue copies "
                f"after {LIST_TRIES} deflated runs"
            )
        runs += 1
        found = vecs

        def deflated(x: np.ndarray) -> np.ndarray:
            y = solve(x - found @ (found.T @ x))
            return y - found @ (found.T @ y)

        more_vals, more_vecs = _lanczos(mat, count - listed, sigma, deflated, deflated(start))
        vals, vecs = np.concatenate([vals, more_vals]), np.hstack([vecs, more_vecs])
        order = np.argsort(vals, kind="stable")
        vals, vecs = vals[order], vecs[:, order]


def _lanczos(mat, count: int, sigma: float, solve, start: np.ndarray):
    """Ascending ``count`` eigenpairs of ``mat`` nearest ``sigma`` from
    shift-invert Lanczos, with ``solve`` applying ``(mat - sigma)^-1``."""
    dim = mat.shape[0]
    opinv = spla.LinearOperator((dim, dim), matvec=solve, dtype=float)
    try:
        vals, vecs = spla.eigsh(
            mat,
            k=count,
            sigma=sigma,
            which="LM",
            OPinv=opinv,
            tol=EIG_TOL,
            maxiter=MAX_ITERATIONS,
            v0=start,
        )
    except spla.ArpackNoConvergence as exc:
        raise SolverError(f"shift-invert Lanczos failed to converge: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _residual_bound(vals: np.ndarray, dim: int) -> float:
    """Largest residual ``|A x - lam x|`` an eigenpair of a dim-``dim``
    matrix may leave: ``max(1e-8, 1e-12 max(1, |lam|) dim)`` over ``vals``."""
    return max(1e-8, 1e-12 * max(1.0, float(np.abs(vals).max())) * dim)


def _certified_residuals(mat, vals: np.ndarray, vecs: np.ndarray, method: str) -> np.ndarray:
    """Residuals ``|A x - lam x|`` of eigenpairs; one above
    ``_residual_bound`` is a ``SolverError``."""
    residuals = np.array(
        [np.linalg.norm(mat @ vecs[:, i] - vals[i] * vecs[:, i]) for i in range(len(vals))]
    )
    if np.any(residuals > _residual_bound(vals, mat.shape[0])):
        raise SolverError(
            f"eigenpair residual {residuals.max():.3e} exceeds tolerance ({method})"
        )
    return residuals


def _signed_unit(vec: np.ndarray) -> np.ndarray:
    """``vec`` normalized, with its largest entry positive so reruns are
    bit-identical."""
    vec = vec / np.linalg.norm(vec)
    pivot = int(np.argmax(np.abs(vec)))
    return -vec if vec[pivot] < 0 else vec


def ground_energy(
    mat, trivial, symmetry: Symmetry, config: SolverConfig
) -> Tuple[float, np.ndarray]:
    """Smallest eigenvalue and unit ground vector of a fiber Hamiltonian.

    Solved on ``trivial``, its trivial block ``Q_0^T H Q_0`` (see the module
    docstring), with the pair certified by its residual there; the ground
    vector is lifted to ``Q_0 y``, certified again by its residual against
    the full ``H``, and normalized with its largest entry positive.
    """
    pairs = lowest_eigenpairs(trivial, 1, config)
    lifted = symmetry.block(0) @ pairs.vectors
    _certified_residuals(mat, pairs.values, lifted, f"lifted {pairs.method}")
    return float(pairs.values[0]), _signed_unit(lifted[:, 0])


def _interlacing_cut(blocks, count: int, config: SolverConfig, width: float) -> float:
    """A cut with at least ``count`` eigenvalues of the direct sum of
    ``blocks`` below it, and every eigenvalue within ``width`` of the
    lowest, known before any Lanczos run.

    Each block's leading ``min(dim, max(count, dense_threshold))`` rows, its
    lowest-boson states (``Symmetry.block`` orders its columns by each
    orbit's lowest state, and an orbit stays inside a boson-number sector),
    span a principal submatrix, whose lowest ``count`` eigenvalues dense
    ``syevr`` gives: the size keeps ``dense_threshold`` the largest matrix
    solved densely unless ``count`` asks for more.  By Cauchy interlacing a
    principal submatrix's ``j``-th eigenvalue bounds its block's ``j``-th
    from above (Parlett, *The Symmetric Eigenvalue Problem*, SIAM 1998, ch.
    10), so at least ``count`` eigenvalues lie at or below ``v``, the
    ``count``-th smallest of the merged values, and the lowest at or below
    the smallest, ``v_1``.  With ``w = max(v, v_1 + width)`` the cut is
    ``w + 2 EIG_TOL max(1, |w|)``: the margin, far above the rounding of
    ``w`` and of a factor's inertia, puts those eigenvalues strictly below it."""
    leading = []
    for block in blocks:
        size = min(block.shape[0], max(count, config.dense_threshold))
        head = _dense(block[:size, :size])
        top = min(count, size) - 1
        leading.append(sla.eigh(head, eigvals_only=True, subset_by_index=[0, top]))
    merged = np.sort(np.concatenate(leading))
    w = max(float(merged[count - 1]), float(merged[0]) + width)
    return w + 2.0 * EIG_TOL * max(1.0, abs(w))


def _lists_below(blocks, cut: float, config: SolverConfig) -> list:
    """Each block's eigenpairs below ``cut``, certified by its inertia there.

    A transient factor at the cut counts a block's eigenvalues below it,
    and ``_lowest`` lists that many, certified by that count; a listed value
    at or above the cut is a ``SolverError``.  A block with none runs no
    eigensolver and has an empty list whose ``method`` is ``None``."""
    lists = []
    for block in blocks:
        below = SymmetricFactor(block, cut, label="eigenvalue list").negative_count
        if not below:
            lists.append(
                Eigenpairs(np.empty(0), np.empty((block.shape[0], 0)), np.empty(0), None, 0)
            )
            continue
        pairs = _lowest(block, below, config, cut)
        if pairs.values[-1] >= cut:
            raise SolverError(
                f"{below} eigenvalues lie below {cut!r}, but the eigensolver "
                f"returned {pairs.values[-1]!r} as the {below}-th"
            )
        lists.append(pairs)
    return lists


def spectrum_summary(
    mat, symmetry: Symmetry, count: int, config: SolverConfig, buffer: float
) -> dict:
    """Low-lying eigenvalues plus the sector gaps nu_1 and nu_2 above them
    and the window count, under the keys of the ``spectrum`` artifact; a
    gap whose tail lies above the truncation is ``None``.

    The character blocks of ``symmetry``, formed once, are listed below
    one cut (``_interlacing_cut``, ``_lists_below``) that clears the
    ``count``-th value and ``e0 + 1 - buffer``; the eigenvalues are the
    lowest ``count``, ties (values within ``EIG_TOL max(1, |v|)`` of the
    next) in block order.  ``diagnostics`` gives that cut and each block's
    dimension, its share of the list, and the method and solves of its own
    list.  The vacuum overlap and the gaps are read from
    the trivial block (see ``nu``).  ``count_below_window`` counts the
    listed values at or below ``e0 + 1 - buffer``: ``count_below`` there,
    unless a listed value lies within its residual of that cut."""
    blocks = symmetry.block_matrices(mat)
    count = min(count, mat.shape[0])
    cut = _interlacing_cut(blocks, count, config, 1.0 - buffer)
    lists = _lists_below(blocks, cut, config)
    values = np.concatenate([pairs.values for pairs in lists])
    residuals = np.concatenate([pairs.residuals for pairs in lists])
    owner = np.repeat(np.arange(len(lists)), [len(pairs.values) for pairs in lists])
    order = np.argsort(values, kind="stable")
    ascending = values[order]
    ties = np.diff(ascending) <= EIG_TOL * np.maximum(1.0, np.abs(ascending[1:]))
    cluster = np.concatenate([[0], np.cumsum(~ties)])
    lowest = order[np.lexsort((owner[order], cluster))][:count]
    lowest = lowest[np.argsort(values[lowest], kind="stable")]
    shares = np.bincount(owner[lowest], minlength=len(blocks))
    e0 = float(values[lowest[0]])
    window = e0 + 1.0 - buffer
    if not window < cut:
        raise SolverError(f"the window cut {window!r} is not below the list cut {cut!r}")
    nmax = symmetry.basis.nmax
    gaps = [nu(blocks[0], e0, n, symmetry, config) if n <= nmax else None for n in (1, 2)]
    ground = symmetry.block(0) @ lists[0].vectors[:, 0]
    return {
        "eigenvalues": values[lowest],
        "residuals": residuals[lowest],
        "vacuum_overlap": float(_signed_unit(ground)[0]),
        "nu1": gaps[0],
        "nu2": gaps[1],
        "count_below_window": int(np.count_nonzero(values <= window)),
        "diagnostics": {
            "cut": cut,
            "blocks": [
                {
                    "dim": block.shape[0],
                    "share": int(share),
                    "method": pairs.method,
                    "iterations": pairs.iterations,
                }
                for block, share, pairs in zip(blocks, shares, lists)
            ],
        },
    }


def nu(trivial, e0: float, n: int, symmetry: Symmetry, config: SolverConfig) -> float:
    """Spectral gap of the ``>= n`` boson tail above the one-boson line.

    Returns the smallest eigenvalue of the tail restriction of
    ``H - 1 - e0``; positivity of ``nu(2)`` is the standing assumption
    behind the two-boson resolvent.  The minimum is taken on the tail of
    ``trivial``, the trivial block ``Q_0^T H Q_0``: its trailing block from
    ``symmetry.tail_column(n)`` on, with its residual certified there.
    """
    nmax = symmetry.basis.nmax
    if n < 1 or n > nmax:
        raise ConfigError(f"tail index {n} outside 1..{nmax}")
    column = symmetry.tail_column(n)
    sub = trivial[column:, column:]
    return float(lowest_eigenpairs(sub, 1, config).values[0]) - 1.0 - e0


def count_below(mat, symmetry: Symmetry, threshold: float, buffer: float) -> int:
    """Number of eigenvalues at or below ``threshold - buffer``, ``scan``'s window.

    The buffer keeps the count stable against eigenvalues sitting right at
    the threshold.  The count is the sum over the character blocks of
    ``symmetry`` of the inertia of ``Q^T A Q - (threshold - buffer)``: its
    negative count plus its zero pivots, so a cut exactly on an eigenvalue
    counts it.  It is exact, since ``A`` is block diagonal in the blocks.
    """
    if buffer < 0:
        raise ConfigError(f"buffer must be >= 0, got {buffer}")
    total = 0
    for block in symmetry.block_matrices(mat):
        factor = SymmetricFactor(block, threshold - buffer, label="counted operator")
        total += factor.negative_count + factor.zero_count
        del factor  # gone before the next block's factor is built
    return total


def eigenvalues_below(
    mat, symmetry: Symmetry, threshold: float, config: SolverConfig
) -> np.ndarray:
    """All eigenvalues strictly below ``threshold``, ascending; empty if
    there are none.

    They are the merged lists of the character blocks of ``symmetry`` below
    the threshold (``_lists_below``): each block's count there certifies
    its list, and a block with none runs no eigensolver.
    """
    lists = _lists_below(symmetry.block_matrices(mat), threshold, config)
    return np.sort(np.concatenate([pairs.values for pairs in lists]))


def _jacobi_cg(off, diag: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, int, bool]:
    """Jacobi-preconditioned conjugate gradients on ``off + diag(diag)``
    from ``x = 0``, applying the pair without forming the matrix.

    scipy's ``cg`` stopping rule: a recursive residual of at most
    ``LIN_TOL |rhs|``, or ``MAX_ITERATIONS`` iterations; a zero ``rhs``
    stops at once with ``x = 0``.  Returns the iterate, the iterations run
    and whether the residual rule was met.
    """
    x, r, p = np.zeros_like(rhs), rhs.copy(), np.zeros_like(rhs)
    tol, rho_prev = LIN_TOL * np.linalg.norm(rhs), 1.0
    for iteration in range(MAX_ITERATIONS):
        if np.linalg.norm(r) <= tol:
            return x, iteration, True
        z = r / diag
        rho = r @ z
        p = z + (rho / rho_prev) * p
        q = off @ p
        q += diag * p
        alpha = rho / (p @ q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, MAX_ITERATIONS, bool(np.linalg.norm(r) <= tol)


def _slack(off, reach: np.ndarray) -> np.ndarray:
    """The rounding error ``4 u nnz_row reach`` of ``A x`` per row, for
    ``reach = |A| |x|``, ``u = eps / 2`` and the diagonal counted."""
    return 2.0 * np.finfo(float).eps * (np.diff(off.indptr) + 1) * reach


def _dominant(off, diag: np.ndarray) -> bool:
    """Whether ``A = off + diag(diag)``, ``off`` CSR with an empty diagonal,
    is strictly diagonally dominant with a positive diagonal, so positive
    definite: ``diag - |off| 1`` must clear ``_slack`` at ``|x| = 1``."""
    magnitude = sp.csr_matrix((np.abs(off.data), off.indices, off.indptr), off.shape)
    radii = magnitude @ np.ones(len(diag))
    return bool(np.all(diag - radii > _slack(off, radii + np.abs(diag))))


def _m_matrix(off, diag: np.ndarray, signs: np.ndarray) -> bool:
    """Whether ``A = off + diag(diag)`` is proven positive definite as an
    M-matrix in the gauge ``signs``; ``off`` is CSR with an empty diagonal.

    ``G = diag(s) A diag(s)`` must have a positive diagonal and no positive
    off-diagonal entry, and some ``x > 0`` must have ``G x > 0`` (Berman &
    Plemmons, ch. 6).  The try is ``x = s y`` for the Jacobi CG iterate
    ``y`` of ``A y = s``, converged or not (``x = 1`` in the gauge is
    ``_dominant``'s test).  ``G x = s (A y)`` must clear its rounding error
    (``_slack``) in every row, so the vector computed is what is proven,
    however accurate the solve.
    """
    gauged = signs[off.indices] * off.data
    gauged *= np.repeat(signs, np.diff(off.indptr))
    if np.any(diag <= 0.0) or np.any(gauged > 0.0):
        return False
    magnitude = sp.csr_matrix((np.abs(gauged, out=gauged), off.indices, off.indptr), off.shape)
    y = _jacobi_cg(off, diag, signs)[0]
    size = np.abs(y)
    slack = _slack(off, magnitude @ size + diag * size)
    return bool(np.all(signs * y > 0.0) and np.all(signs * (off @ y + diag * y) > slack))


class SpdSolver:
    """Repeated solves against one symmetric positive definite matrix
    ``A = off + diag(d)``, given as ``off``, CSR with an empty diagonal, and
    ``diagonal``, a call that returns ``d``.  A caller holding a whole
    matrix splits it.

    Construction certifies definiteness by strict diagonal dominance
    (``_dominant``), else as an M-matrix in the sign gauge ``signs``
    (``_m_matrix``; all ``+1`` when not given), else by the inertia of a
    transient ``SymmetricFactor``, at every dimension; each solve runs
    Jacobi-preconditioned conjugate gradients on the pair (``_jacobi_cg``).
    So a solver holds no factor, no matrix and no diagonal: only ``off``,
    which its caller may share, and ``diagonal``, called once at
    construction and once per ``solve``.  An indefinite matrix raises
    ``IndefiniteOperatorError`` naming its negative count, a singular one
    ``SolverError``.  One DEBUG event on the ``polaronlab`` logger names the
    certificate, ``diagonal dominance``, ``m-matrix`` or ``inertia``, and
    each solve logs another with its column and iteration counts.  Every
    answer must leave a true residual ``|A x - b| <= LIN_TOL |b|``.
    Instances are safe to share across threads.
    """

    def __init__(
        self, off, diagonal: Callable[[], np.ndarray], label: str = "operator",
        signs: Optional[np.ndarray] = None,
    ):
        self.label = label
        self._off, self._diagonal = off, diagonal
        diag = diagonal()
        self.dim = len(diag)
        if _dominant(off, diag):
            certificate = "diagonal dominance"
        elif _m_matrix(off, diag, np.ones(self.dim) if signs is None else signs):
            certificate = "m-matrix"
        else:
            certificate = "inertia"
            factor = SymmetricFactor(off + sp.diags(diag, format="csr"), 0.0, label)
            if factor.zero_count:
                raise SolverError(f"{label} is singular: {factor.zero_count} zero pivots")
            negative = factor.negative_count
            if negative:
                raise IndefiniteOperatorError(f"{label} has {negative} negative eigenvalues")
        _log.debug("%s: dim %d certified positive definite by %s", label, self.dim, certificate)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` to the linear tolerance ``LIN_TOL``; ``rhs`` is
        one vector or a block of columns."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.dim:
            raise ConfigError(f"rhs has dim {rhs.shape[0]}, operator has {self.dim}")
        columns = rhs.reshape(self.dim, -1)
        diag = self._diagonal()
        out, iterations = np.empty_like(columns), 0
        for j in range(columns.shape[1]):
            out[:, j], used = self._cg(columns[:, j], diag)
            iterations += used
        _log.debug(
            "solve %s: %d columns in %d PCG iterations", self.label, columns.shape[1], iterations
        )
        return out.reshape(rhs.shape)

    def _cg(self, rhs: np.ndarray, diag: np.ndarray) -> Tuple[np.ndarray, int]:
        x, iterations, converged = _jacobi_cg(self._off, diag, rhs)
        if not converged:
            raise SolverError(
                f"conjugate gradients on {self.label} did not converge in {iterations} iterations"
            )
        residual = np.linalg.norm(self._off @ x + diag * x - rhs)
        scale = np.linalg.norm(rhs)
        if residual > LIN_TOL * scale:
            raise SolverError(
                f"conjugate gradients on {self.label} left residual {residual:.3e} "
                f"at |rhs| {scale:.3e}"
            )
        return x, iterations
