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
temporary.  Every ladder and field operator and the fiber Hamiltonian are
filled by one helper, ``_assemble``, straight into canonical CSR arrays:
row counts first, then one pass over the modes that lowers each mode on
all states at once, ranks the results and writes every entry into its
slot, with no triplets and no sort.  Creation operators annihilate the top
sector: raising out of the truncation maps to zero.  Ladder and field
operators come back as ``csr_matrix``es wrapping those arrays; the fiber
Hamiltonian comes as a ``SparseOperator``, the arrays themselves, which
``storage`` persists and which wraps them in a ``csr_matrix`` on first
use.  This module loads numpy alone: scipy loads only in the functions
that return a CSR matrix, so ``build``, which assembles and persists
operators, runs without it.
``symmetry`` gives an instance's point group as one ``Symmetry`` value.
Its sign-flip subgroup splits the basis into character blocks (Weisse &
Fehske, Lect. Notes Phys. 739, 529, 2008; Sandvik, AIP Conf. Proc. 1297,
135, 2010), the one symmetry reduction of the spectral solvers; the
trivial block also holds the bottom of H and of its tails.  ``orbits``
gives the orbits of a permutation group, and ``sign_gauge`` the basis
signs under which the fiber Hamiltonian has no positive off-diagonal
entry.
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
        """Total momentum ``sum_j n_j k_j`` of every state, shape ``(dim, d)``.

        Each mode adds ``n_j k_j`` to the states that occupy it, in mode
        order: no ``(dim, M)`` float copy.  On a dyadic grid (every benchmark
        grid, and the paper's h = 1 and h = 1/2) every partial sum is exact,
        so any summation order gives the same bits; elsewhere this order can
        differ from a matrix product by round-off (8.9e-16 at d=1, K=2.1,
        h=0.3, ``nmax`` 4).
        """
        out = np.zeros((self.dim, grid.d))
        for j, k in enumerate(grid.modes):
            states = np.flatnonzero(self.occupations[:, j])
            out[states] += self.occupations[states, j, None] * k
        return out


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


def _index_dtype(dim: int, nnz: int):
    """scipy's own CSR index dtype: int32 unless ``dim`` or ``nnz`` needs int64."""
    return np.int32 if max(dim, nnz) <= np.iinfo(np.int32).max else np.int64


@dataclass(eq=False)
class SparseOperator:
    """A persisted operator: the canonical CSR arrays of a symmetric
    ``dim x dim`` matrix, column indices ascending in every row and no
    stored zero (see ``_assemble``), indices in ``_index_dtype``.

    Building and persisting it needs numpy alone; ``matrix`` wraps the
    arrays, without a copy, and loads scipy on first use.
    """

    dim: int
    indptr: np.ndarray = field(repr=False)  # (dim + 1,)
    indices: np.ndarray = field(repr=False)  # (nnz,)
    data: np.ndarray = field(repr=False)  # (nnz,) float64

    def __post_init__(self):
        idx = _index_dtype(self.dim, len(self.data))
        self.indptr = self.indptr.astype(idx, copy=False)
        self.indices = self.indices.astype(idx, copy=False)

    @property
    def nnz(self) -> int:
        return len(self.data)

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.dim, self.dim))


def _assemble(basis: FockBasis, amps: np.ndarray, creation=True, annihilation=True, diag=None):
    """``sum_j amps_j (a_j^+ + a_j) + diag(diag)`` as a ``SparseOperator``,
    filled in one pass over the modes with no sort; ``creation`` and
    ``annihilation`` keep the ``a_j^+`` and the ``a_j`` terms.

    Row ``s`` holds, in column order: ``(s, s - e_j)`` for every occupied
    mode with ``amps_j != 0``, then its diagonal entry, then, below the top
    sector, ``(s, s + e_j)`` for every such mode; zero amplitudes and zero
    diagonal entries are left out.  ``rank(s - e_j)`` rises with ``j``, so
    the first kind fills its row in mode order; ``rank(s + e_j)`` falls with
    ``j``, so the ``a``-th active mode's entry of the last kind sits ``a + 1``
    slots before the row's end.  Each entry is ``amps_j sqrt(n_j)`` for the
    higher state's ``n_j``.
    """
    if len(amps) != basis.n_modes:
        raise ConfigError(f"{len(amps)} amplitudes for a basis of {basis.n_modes} modes")
    occ, active = basis.occupations, np.flatnonzero(amps)
    occupied = [np.flatnonzero(occ[:, j]).astype(np.int32) for j in active]  # states per mode
    counts = np.zeros(basis.dim + 1, dtype=np.int32)  # of every row, from index 1 on
    if creation:
        for states in occupied:
            counts[states + 1] += 1
    if diag is not None:
        counts[1:] += diag != 0
    if annihilation:
        counts[1 : basis.sector_offsets[basis.nmax] + 1] += len(active)
    indptr = np.cumsum(counts, dtype=_index_dtype(basis.dim, int(counts.sum())))
    indices, data = np.empty(indptr[-1], dtype=indptr.dtype), np.empty(indptr[-1])
    fill = indptr[:-1].copy()  # next free slot of every row
    for a, (j, states) in enumerate(zip(active, occupied)):
        lowered = occ[states]
        amp = amps[j] * np.sqrt(lowered[:, j].astype(float))
        lowered[:, j] -= 1
        low = basis.rank(lowered)
        if creation:
            slot = fill[states]
            indices[slot], data[slot] = low, amp
            fill[states] += 1
        if annihilation:
            slot = indptr[low + 1] - (a + 1)
            indices[slot], data[slot] = states, amp
    if diag is not None:
        states = np.flatnonzero(diag)
        indices[fill[states]], data[fill[states]] = states, diag[states]
    return SparseOperator(basis.dim, indptr, indices, data)


def _unit(basis: FockBasis, mode: int) -> np.ndarray:
    """Amplitude 1 on ``mode`` and 0 on every other mode."""
    if not 0 <= mode < basis.n_modes:
        raise ConfigError(f"mode {mode} outside 0..{basis.n_modes - 1}")
    return np.eye(basis.n_modes)[mode]


def annihilator(basis: FockBasis, mode: int) -> sp.csr_matrix:
    """Mode annihilation operator ``a_k`` (lowers every sector)."""
    return _assemble(basis, _unit(basis, mode), creation=False).matrix


def creator(basis: FockBasis, mode: int) -> sp.csr_matrix:
    """Mode creation operator ``a_k^+``; maps the top sector to zero."""
    return _assemble(basis, _unit(basis, mode), annihilation=False).matrix


def field_operator(basis: FockBasis, ff: FormFactor) -> sp.csr_matrix:
    """Coupling field ``sum_k v_k (a_k + a_k^+)``, connecting adjacent sectors."""
    return _assemble(basis, ff.values).matrix


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
    return _assemble(basis, ff.values, diag=diag)


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
    (``basis_perm``) and each character block ``Q_chi`` (``block``) is
    built on first use and kept per element or character, so a level that
    asks for the trivial block alone builds no other.  The sign-flip
    ``characters`` and the flip orbits behind every block, which need the
    ``U_a`` of the flips alone, are built once, on first use.  The trivial
    block ``block(0)`` spans the vectors every flip fixes; it holds the
    bottom of H and of its tails (see the ``spectral`` module docstring),
    and ``tail_column`` cuts it into those tails."""

    basis: FockBasis
    mode_perms: np.ndarray = field(repr=False)  # (order, n_modes) int64
    flips: np.ndarray = field(repr=False)  # (flip order,) int64 rows of mode_perms
    _basis_perms: Dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)
    _blocks: Dict[int, sp.csr_matrix] = field(default_factory=dict, init=False, repr=False)

    def basis_perm(self, g: int) -> np.ndarray:
        """``U_g`` of element ``g``, a basis permutation (``FockBasis.permute_modes``)."""
        perm = self._basis_perms.get(g)
        if perm is None:
            perm = self._basis_perms[g] = self.basis.permute_modes(self.mode_perms[g])
        return perm

    def tail_column(self, n: int) -> int:
        """First column of the trivial block ``block(0)`` in the ``>= n``
        boson tail.  That block has a column for every sign-flip orbit,
        ordered by its lowest state, and a flip keeps the boson number, so
        each tail is a trailing range of its columns."""
        return int(self.block(0).indices[self.basis.tail_start(n)])

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
    def _flip_orbits(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sign-flip orbits (``orbits``) behind every block: each
        state's orbit, numbered by lowest state; the first flip that carries
        the orbit's lowest state to it; and, one row per character, the
        orbits that character admits.  Logs the group order, the flip
        order, each block's dimension (its admitted orbits) and the basis
        dimension at DEBUG level, once."""
        dim = self.basis.dim
        moved = np.array([np.arange(dim)] + [self.basis_perm(int(g)) for g in self.flips[1:]])
        lowest, carrier = orbits(moved)
        reps = np.flatnonzero(lowest == np.arange(dim))
        fixes = np.array([perm[reps] == reps for perm in moved])  # (flips, orbits)
        # sum_a chi(a) e_{U_a r} cancels unless chi is trivial on r's stabilizer
        admitted = np.array([~(fixes & (chi < 0)[:, None]).any(axis=0) for chi in self.characters])
        _log.debug(
            "character blocks of the order-%d group (flip order %d): dims %s of %d",
            len(self.mode_perms), len(self.flips), admitted.sum(axis=1).tolist(), dim,
        )
        return np.searchsorted(reps, lowest), carrier, admitted

    def block(self, c: int) -> sp.csr_matrix:
        """The isometry ``Q_chi`` of row ``c`` of ``characters``, built on
        first use and kept: for each sign-flip orbit that ``chi`` admits
        (``_flip_orbits``), ordered by its lowest state ``r``, the
        normalized column ``sum_a chi(a) e_{U_a r}``, ``chi(a) / sqrt(orbit
        size)`` on each state ``U_a r``.  The columns of all blocks together
        are an orthonormal basis, and a matrix that commutes with the sign
        flips is block diagonal in it; the trivial group gives the identity
        alone.  Each state lies in at most one column of a block, so each
        ``Q_chi`` is built row by row."""
        q = self._blocks.get(c)
        if q is None:
            import scipy.sparse as sp

            orbit, carrier, admitted = self._flip_orbits
            rows = admitted[c][orbit]
            indptr = np.concatenate([[0], np.cumsum(rows)])
            column = (np.cumsum(admitted[c]) - 1)[orbit[rows]]
            size = np.bincount(orbit)[orbit[rows]].astype(float)
            value = self.characters[c][carrier[rows]] / np.sqrt(size)
            q = self._blocks[c] = sp.csr_matrix(
                (value, column, indptr), shape=(self.basis.dim, int(admitted[c].sum()))
            )
        return q

    def block_matrix(self, mat, c: int) -> sp.csr_matrix:
        """``Q_chi^T A Q_chi`` for the block ``block(c)``.

        It is ``S^T A S`` for the signs ``S`` of ``Q_chi``, scaled by
        ``1 / sqrt(m_i m_j)`` for the orbit sizes ``m``: a power of 2, so a
        diagonal entry that sums ``m`` copies of one value keeps it
        exactly, as the free spectrum does."""
        import scipy.sparse as sp

        q = self.block(c)
        signs = q.sign()
        block = (signs.T @ sp.csr_matrix(mat) @ signs).tocsr()
        size = np.bincount(q.indices, minlength=q.shape[1]).astype(float)
        rows = np.repeat(np.arange(q.shape[1]), np.diff(block.indptr))
        block.data /= np.sqrt(size[rows] * size[block.indices])
        return block

    def block_matrices(self, mat) -> List[sp.csr_matrix]:
        """``block_matrix`` of every block, in the order of ``characters``."""
        return [self.block_matrix(mat, c) for c in range(len(self.characters))]


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
