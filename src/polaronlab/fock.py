"""Truncated bosonic Fock space over the grid modes and operator assembly.

States are occupation vectors ``(n_1, ..., n_M)`` with ``sum n_j <= nmax``,
ordered by total boson number and lexicographically inside each sector, so
the vacuum always has index 0 and every sector is one contiguous index
range.  ``FockBasis.rank`` maps occupation vectors to indices with the
combinatorial number system: the sector offset plus, mode by mode, the
number of compositions that sort below the state.  It reads the occupation
columns in place, one mode at a time, in any column order, so
``permute_modes`` ranks the moved states without a moved copy.
``enumerate_basis`` is its inverse: it unranks every index into the one
``int32`` array, one mode column at a time.  Neither forms a ``(dim, M)``
temporary.  Every ladder and field operator is built from one vectorized
helper, ``_lowering``, which lowers one mode on all states at once and
ranks the results.  Creation operators
annihilate the top sector: raising out of the truncation maps to zero.
Every operator is first a set of canonical triplets: ``_canonical`` sorts
the entries by row, then column, and drops zero values.  Ladder and field
operators come back as ``csr_matrix``es built from them; the fiber
Hamiltonian comes as a ``SparseOperator``, the triplets that ``storage``
persists, whose CSR form is built on first use.  This module loads numpy
alone: scipy loads only in the functions that return a CSR matrix, so
``build``, which assembles and persists triplets, runs without it.
``symmetry`` gives an instance's point group as one ``Symmetry`` value,
whose sign-flip subgroup splits the basis into character blocks (Weisse &
Fehske, Lect. Notes Phys. 739, 529, 2008; Sandvik, AIP Conf. Proc. 1297,
135, 2010), and ``orbits`` the orbits of a permutation group;
``sign_gauge`` gives the basis signs under which the fiber Hamiltonian has
no positive off-diagonal entry.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DimensionCapError
from .grid import FormFactor, MomentumGrid, stabilizer

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_FOCK_CAP = 200_000
#: default seed of ``spectral.SolverConfig``, kept here so that loading a
#: config reads it without loading the solvers
DEFAULT_SEED = 2024

_log = logging.getLogger("polaronlab")


def fock_dimension(n_modes: int, nmax: int) -> int:
    """Number of occupation vectors with at most ``nmax`` bosons."""
    return sum(comb(n_modes + n - 1, n) for n in range(nmax + 1))


@dataclass(eq=False)
class FockBasis:
    """Enumerated occupation basis for ``n_modes`` modes up to ``nmax`` bosons."""

    n_modes: int
    nmax: int
    occupations: np.ndarray = field(repr=False)  # (dim, n_modes) int32
    sector_offsets: np.ndarray = field(repr=False)  # (nmax + 2,) int64
    #: below[i, r, c]: ways to put ``r`` bosons into modes ``i..`` with fewer
    #: than ``c`` in mode ``i``; a state's rank in its sector sums these
    below: np.ndarray = field(repr=False)  # (n_modes, nmax + 1, nmax + 2) int64

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def rank(self, occupations: np.ndarray, modes: Optional[np.ndarray] = None) -> np.ndarray:
        """Basis index of every row of a ``(k, n_modes)`` array of basis states.

        Column ``modes[i]`` holds the occupation of mode ``i`` (column ``i``
        when ``modes`` is not given).  The columns are read in place, one at
        a time.  Rows are not validated; ``index_of`` does that for a single
        state.
        """
        occ = np.asarray(occupations)
        left = occ.sum(axis=1)  # bosons in this mode and the ones after it
        index = self.sector_offsets[left]
        for i in range(self.n_modes):
            count = occ[:, i if modes is None else modes[i]]
            index += self.below[i][left, count]
            left -= count
        return index

    def index_of(self, occupation: Sequence[int]) -> int:
        """Index of an occupation vector; raises ConfigError if absent."""
        occ = np.asarray(occupation, dtype=np.int64)
        if occ.shape != (self.n_modes,) or occ.min() < 0 or occ.sum() > self.nmax:
            raise ConfigError(
                f"occupation {list(occupation)} is not a basis state (nmax={self.nmax})"
            )
        return int(self.rank(occ[None, :])[0])

    def permute_modes(self, mode_perm: np.ndarray) -> np.ndarray:
        """Basis permutation ``U`` that moves every boson of mode ``j`` to mode
        ``mode_perm[j]``: state ``i`` goes to state ``out[i]``.

        It keeps every sector, so it also permutes each tail within itself.
        Mode ``m`` of a moved state holds the bosons of the mode ``j`` with
        ``mode_perm[j] = m``, so ``rank`` reads the columns of
        ``occupations`` through the inverse permutation: no moved copy.
        """
        return self.rank(self.occupations, modes=np.argsort(mode_perm))

    def sector_range(self, n: int) -> range:
        """Contiguous index range of the ``n``-boson sector."""
        if not 0 <= n <= self.nmax:
            raise ConfigError(f"sector {n} outside 0..{self.nmax}")
        return range(int(self.sector_offsets[n]), int(self.sector_offsets[n + 1]))

    def tail_start(self, n: int) -> int:
        """First index of the ``>= n`` boson tail."""
        if not 0 <= n <= self.nmax:
            raise ConfigError(f"sector {n} outside 0..{self.nmax}")
        return int(self.sector_offsets[n])

    def boson_counts(self) -> np.ndarray:
        """Total boson number of every basis state, shape ``(dim,)``."""
        return self.occupations.sum(axis=1).astype(np.int64)

    def momentum_sums(self, grid: MomentumGrid) -> np.ndarray:
        """Total momentum ``sum_j n_j k_j`` of every state, shape ``(dim, d)``."""
        return self.occupations.astype(float) @ grid.modes


def enumerate_basis(n_modes: int, nmax: int, cap: int = DEFAULT_FOCK_CAP) -> FockBasis:
    """Enumerate the truncated occupation basis, sector-major.

    The dimension ``sum_{n<=nmax} C(M+n-1, n)`` must stay below ``cap``.
    Each index is unranked against the ``below`` table that ``rank`` sums,
    one mode column at a time, straight into the ``int32`` array.
    """
    if n_modes < 1:
        raise ConfigError(f"need at least one mode, got {n_modes}")
    if nmax < 0:
        raise ConfigError(f"nmax must be >= 0, got {nmax}")
    dim = fock_dimension(n_modes, nmax)
    if dim > cap:
        raise DimensionCapError(f"Fock dimension {dim} exceeds cap {cap}")
    # ways[i, s]: compositions of s bosons into the modes after i
    ways = np.zeros((n_modes, nmax + 1), dtype=np.int64)
    ways[-1, 0] = 1
    for i in range(n_modes - 2, -1, -1):
        ways[i] = np.cumsum(ways[i + 1])
    s = np.arange(nmax + 1)
    rest = s[:, None] - s[None, :]  # bosons left after mode i takes c of r
    terms = np.where(rest >= 0, ways[:, np.maximum(rest, 0)], 0)
    below = np.zeros((n_modes, nmax + 1, nmax + 2), dtype=np.int64)
    np.cumsum(terms, axis=2, out=below[:, :, 1:])
    offsets = np.zeros(nmax + 2, dtype=np.int64)
    offsets[1:] = np.cumsum([comb(n_modes + n - 1, n) for n in range(nmax + 1)])
    # unrank every index, the inverse of ``FockBasis.rank``: mode i takes the
    # most bosons c whose ``below[i, left, c]`` still fits the lexicographic rest
    left = np.repeat(s, np.diff(offsets))
    lex = np.arange(dim) - offsets[left]
    occ = np.empty((dim, n_modes), dtype=np.int32)
    count = np.empty(dim, dtype=np.int64)
    for i in range(n_modes):
        count[:] = 0
        for c in range(1, nmax + 1):
            count += np.take(below[i, :, c], left) <= lex
        occ[:, i] = count
        lex -= below[i][left, count]
        left -= count
    return FockBasis(
        n_modes=n_modes, nmax=nmax, occupations=occ, sector_offsets=offsets, below=below
    )


@dataclass(eq=False)
class SparseOperator:
    """A persisted operator: the canonical triplets of a symmetric
    ``dim x dim`` matrix (see ``_canonical``).

    Building and persisting it needs numpy alone; ``matrix``, its CSR form,
    loads scipy on first use.
    """

    dim: int
    rows: np.ndarray = field(repr=False)  # (nnz,) int64
    cols: np.ndarray = field(repr=False)  # (nnz,) int64
    values: np.ndarray = field(repr=False)  # (nnz,) float64

    @property
    def nnz(self) -> int:
        return len(self.values)

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        return _csr(self.dim, self.rows, self.cols, self.values)


def _canonical(dim: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    """Triplets of distinct entries, sorted by row, then column, with the
    zero values dropped: the order of a canonical CSR matrix."""
    keep = vals != 0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.argsort(rows * dim + cols, kind="stable")
    return rows[order], cols[order], vals[order]


def _csr(dim: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> sp.csr_matrix:
    """CSR matrix of canonical triplets."""
    import scipy.sparse as sp

    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    return sp.csr_matrix((vals, cols, indptr), shape=(dim, dim))


def _lowering(basis: FockBasis, mode: int):
    """Triplets (row, col, sqrt(n_mode)) of the annihilator ``a_mode``; no
    two share a column, so they are distinct."""
    if not 0 <= mode < basis.n_modes:
        raise ConfigError(f"mode {mode} outside 0..{basis.n_modes - 1}")
    cols = np.flatnonzero(basis.occupations[:, mode])
    lowered = basis.occupations[cols]
    n = lowered[:, mode].astype(float)
    lowered[:, mode] -= 1
    return basis.rank(lowered), cols, np.sqrt(n)


def annihilator(basis: FockBasis, mode: int) -> sp.csr_matrix:
    """Mode annihilation operator ``a_k`` (lowers every sector)."""
    rows, cols, vals = _lowering(basis, mode)
    return _csr(basis.dim, *_canonical(basis.dim, rows, cols, vals))


def creator(basis: FockBasis, mode: int) -> sp.csr_matrix:
    """Mode creation operator ``a_k^+``; maps the top sector to zero."""
    rows, cols, vals = _lowering(basis, mode)
    return _csr(basis.dim, *_canonical(basis.dim, cols, rows, vals))


def _field_triplets(basis: FockBasis, ff: FormFactor):
    """Triplets of ``sum_k v_k (a_k + a_k^+)``: each mode's lowering
    triplets and their transposes.  They are all distinct, since ``a_k``
    lowers a state to a different state for every ``k``."""
    if ff.values.shape[0] != basis.n_modes:
        raise ConfigError(
            f"form factor has {ff.values.shape[0]} amplitudes, basis has {basis.n_modes} modes"
        )
    rows, cols, vals = [], [], []
    for mode in range(basis.n_modes):
        low_rows, low_cols, sqrt_n = _lowering(basis, mode)
        amp = ff.values[mode] * sqrt_n
        rows += [low_rows, low_cols]
        cols += [low_cols, low_rows]
        vals += [amp, amp]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def field_operator(basis: FockBasis, ff: FormFactor) -> sp.csr_matrix:
    """Coupling field ``sum_k v_k (a_k + a_k^+)``, connecting adjacent sectors."""
    return _csr(basis.dim, *_canonical(basis.dim, *_field_triplets(basis, ff)))


def squared_momenta(p_state: np.ndarray, momentum: np.ndarray, start: int = 0) -> np.ndarray:
    """``|p + momentum|^2`` of every row ``p`` of the ``(dim, d)`` state
    momenta ``p_state`` from ``start`` on, summed one axis at a time: no
    ``(dim, d)`` temporary."""
    out = np.zeros(len(p_state) - start)
    for axis, q in enumerate(momentum):
        p = p_state[start:, axis] + q
        p *= p
        out += p
    return out


def assemble_hamiltonian(
    basis: FockBasis,
    grid: MomentumGrid,
    ff: FormFactor,
    xi: Optional[Sequence[float]] = None,
) -> SparseOperator:
    """Fiber Hamiltonian ``(P - xi)^2 + Phi(v) + N`` at total momentum ``xi``,
    any point of ``R^d``."""
    xi = np.zeros(grid.d) if xi is None else np.asarray(xi, dtype=float)
    if xi.shape != (grid.d,):
        raise ConfigError(f"xi has shape {xi.shape}, expected ({grid.d},)")
    diag = squared_momenta(basis.momentum_sums(grid), -xi) + basis.boson_counts()
    rows, cols, vals = _field_triplets(basis, ff)
    states = np.arange(basis.dim)
    rows, cols, vals = _canonical(
        basis.dim,
        np.concatenate([rows, states]),
        np.concatenate([cols, states]),
        np.concatenate([vals, diag]),
    )
    return SparseOperator(dim=basis.dim, rows=rows, cols=cols, values=vals)


def orbits(perms: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Orbits of a permutation group given by its rows ``perms[g]``.

    Returns, for every item ``x``, the lowest item ``rep[x]`` of its orbit
    and the first group element ``g`` with ``perms[g, rep[x]] == x``.
    """
    rep = perms.min(axis=0)
    carrier = np.argmax(perms[:, rep] == np.arange(perms.shape[1]), axis=0)
    return rep, carrier


@dataclass(eq=False)
class Symmetry:
    """A group of mode permutations, the identity first, acting on a basis.

    ``flips`` indexes its sign-flip subgroup, the elements that flip
    coordinate axes and permute none, the identity first.  Each ``U_g``
    (``basis_perm``) is built on first use and kept per element; the
    invariant ``sector``, the sign-flip ``characters`` and their ``blocks``
    are built on first use."""

    basis: FockBasis
    mode_perms: np.ndarray = field(repr=False)  # (order, n_modes) int64
    flips: np.ndarray = field(repr=False)  # (flip order,) int64 rows of mode_perms
    _basis_perms: Dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def basis_perm(self, g: int) -> np.ndarray:
        """``U_g`` of element ``g``, a basis permutation (``FockBasis.permute_modes``)."""
        perm = self._basis_perms.get(g)
        if perm is None:
            perm = self._basis_perms[g] = self.basis.permute_modes(self.mode_perms[g])
        return perm

    @cached_property
    def sector(self) -> sp.csr_matrix:
        """``B``, whose columns are the normalized orbit sums ordered by
        lowest state, so each ``>= n`` tail is a trailing block of columns
        (``tail_column``); the identity group gives the identity.  The orbit
        minima are a running minimum over the ``U_g``, one at a time and
        none kept.  Logs the group order, sector and full dimensions at
        DEBUG level."""
        import scipy.sparse as sp

        dim = self.basis.dim
        lowest = np.arange(dim)
        for perm in self.mode_perms[1:]:
            np.minimum(lowest, self.basis.permute_modes(perm), out=lowest)
        _, column, size = np.unique(lowest, return_inverse=True, return_counts=True)
        column = column.ravel()
        sector = sp.csr_matrix(
            (1.0 / np.sqrt(size[column]), column, np.arange(dim + 1)), shape=(dim, len(size))
        )
        _log.debug(
            "invariant sector of the order-%d group: dim %d of %d",
            len(self.mode_perms), len(size), dim,
        )
        return sector

    def restrict(self, mat) -> sp.csr_matrix:
        """``B^T A B``."""
        import scipy.sparse as sp

        return (self.sector.T @ sp.csr_matrix(mat) @ self.sector).tocsr()

    def tail_column(self, n: int) -> int:
        """First column of ``B`` in the ``>= n`` boson tail."""
        return int(self.sector.indices[self.basis.tail_start(n)])

    @cached_property
    def characters(self) -> np.ndarray:
        """Character table of the sign-flip subgroup, float ``+-1`` of shape
        ``(len(flips), len(flips))``: row ``c`` is one character on the
        elements ``flips``, the trivial character first.

        The subgroup is ``Z_2^r``: each element not yet a product of the
        generators found so far becomes the next one, so every element gets
        the bit mask of its generators, and character ``c`` is
        ``(-1)^popcount(c & mask)``."""
        perms = self.mode_perms[self.flips]
        row = {perm.tobytes(): i for i, perm in enumerate(perms)}
        masks = np.full(len(perms), -1, dtype=np.int64)
        masks[0], rank = 0, 0
        for i in range(len(perms)):
            if masks[i] < 0:
                for j in np.flatnonzero(masks >= 0):
                    masks[row[perms[j][perms[i]].tobytes()]] = masks[j] | 1 << rank
                rank += 1
        parity = [[bin(c & int(m)).count("1") & 1 for m in masks] for c in range(2**rank)]
        return 1.0 - 2.0 * np.array(parity)

    @cached_property
    def blocks(self) -> List[sp.csr_matrix]:
        """The isometries ``Q_chi``, one per row of ``characters``: for each
        sign-flip orbit (``orbits``), ordered by its lowest state ``r``,
        whose stabilizer ``chi`` is trivial on, the normalized column
        ``sum_a chi(a) e_{U_a r}``, ``chi(a) / sqrt(orbit size)`` on each
        state ``U_a r``.  Their columns
        together are an orthonormal basis, and a matrix that commutes with
        the sign flips is block diagonal in it; the trivial group gives the
        identity alone.  Each state lies in at most one column of a block,
        so each ``Q_chi`` is built row by row."""
        import scipy.sparse as sp

        dim = self.basis.dim
        moved = np.array([np.arange(dim)] + [self.basis_perm(int(g)) for g in self.flips[1:]])
        lowest, carrier = orbits(moved)
        reps = np.flatnonzero(lowest == np.arange(dim))
        orbit = np.searchsorted(reps, lowest)
        size = np.bincount(orbit)[orbit].astype(float)
        fixes = np.array([perm[reps] == reps for perm in moved])  # (flips, orbits)
        blocks = []
        for chi in self.characters:
            # sum_a chi(a) e_{U_a r} cancels unless chi is trivial on r's stabilizer
            admitted = ~(fixes & (chi < 0)[:, None]).any(axis=0)
            rows = admitted[orbit]
            indptr = np.concatenate([[0], np.cumsum(rows)])
            column = (np.cumsum(admitted) - 1)[orbit[rows]]
            value = chi[carrier[rows]] / np.sqrt(size[rows])
            blocks.append(sp.csr_matrix((value, column, indptr), shape=(dim, int(admitted.sum()))))
        return blocks

    def block_matrices(self, mat) -> List[sp.csr_matrix]:
        """``Q_chi^T A Q_chi`` for every block, in the order of ``blocks``.

        Each is ``S^T A S`` for the signs ``S`` of ``Q_chi``, scaled by
        ``1 / sqrt(m_i m_j)`` for the orbit sizes ``m``: a power of 2, so a
        diagonal entry that sums ``m`` copies of one value keeps it
        exactly, as the free spectrum does."""
        import scipy.sparse as sp

        mat = sp.csr_matrix(mat)
        out = []
        for q in self.blocks:
            signs = q.sign()
            block = (signs.T @ mat @ signs).tocsr()
            size = np.bincount(q.indices, minlength=q.shape[1]).astype(float)
            rows = np.repeat(np.arange(q.shape[1]), np.diff(block.indptr))
            block.data /= np.sqrt(size[rows] * size[block.indices])
            out.append(block)
        return out


def symmetry(basis: FockBasis, grid: MomentumGrid, ff: FormFactor, xi=None) -> Symmetry:
    """The point group of an instance on ``basis`` (``grid.stabilizer``).

    Its sign flips are the elements that keep every ``|k_j|`` coordinate by
    coordinate; each other element moves some axis mode ``e_i`` onto
    another axis."""
    perms = stabilizer(grid, ff, xi)
    size = np.abs(grid.index)
    flips = np.flatnonzero([np.array_equal(size[perm], size) for perm in perms])
    return Symmetry(basis, perms, flips)


def sign_gauge(basis: FockBasis, ff: FormFactor) -> np.ndarray:
    """Signs ``s(n) = (-1)^N(n) prod_k sign(v_k)^{n_k}`` (sign(0) = +1) of the
    basis states, under which every off-diagonal entry of the fiber
    Hamiltonian and of its tails is ``-|v_k| sqrt(m) <= 0``."""
    return (-1.0) ** (basis.boson_counts() + basis.occupations @ (ff.values < 0))
