"""Schur-complement reduction of the fiber Hamiltonian onto small blocks.

Everything here is organized around three resolvent families built from
one instance (grid, form factor, truncation level) and its ground energy
``e0``:

* ``Y(k)``   — inverse of ``(P+k)^2 + Phi + N - e0`` on the >=1 boson tail,
* ``Z(s)``   — inverse of ``(P+s)^2 + Phi + N + 1 - e0`` on the full space,
* ``X(eps)`` — inverse of ``H - e0 - 1 + eps`` on the >=2 boson tail.

From these the module assembles the vacuum Schur scalar, the mode energy
curve ``E(k) = -<v|Y(k)|v>``, the one-particle kernels ``D`` and ``C``,
and the derived decomposition (``c0``, ``psi``, ``F``, ``phi``, ``A``,
``S``) behind the Birman-Schwinger lower bound.  Momentum arguments enter
only through diagonal blueprints, so probe momenta off the grid are fine.

The kernels on the grid are computed on orbit representatives only.  An
element ``g`` of the instance's point group (``fock.Symmetry``) maps mode
``k`` to ``g k`` and the basis by a permutation ``U_g``, and
``U_g H(k) U_g^T = H(g k)``.  So ``Y(gk)|v> = U_g Y(k)|v>``,
``X a_{gk}^+|v> = U_g X a_k^+|v>``, ``E(gk) = E(k)`` and
``C(gk, gl) = C(k, l)``: ``c_matrix``, ``d_kernel`` and ``build_bundle``
solve one column per orbit and one ``Z(s)`` per orbit of sums, and hold
each family (``Y(p)|v>``, ``a_k^+|v>`` and their ``X`` solves) as its
representatives' columns alone.  A kernel entry ``K(r, l) = <a_r, b_l>``
is formed only on representative rows ``r``, with ``b_l`` moved from its
representative's column by ``U_g`` for the carrier ``g`` of ``l``, and
every other entry is ``K(gr, gl) = K(r, l)``, so the memory of a kernel
grows with the number of orbits, not of modes.  These mode orbits need
the whole group; the ground energy and the tail gaps need only its sign
flips (``fock.Symmetry.block``).  With a trivial group
(a generic ``xi``, a non-radial profile) every orbit is one point and
every column is solved.  ``c_kernel``, ``lambda_direct`` and the pointwise
solves (``y_on_v`` caches only what it solved) use no symmetry.  The tests
check ``c_matrix`` against ``c_kernel``, and the identity suite checks the
bundle's kernels against ``lambda_direct`` and ``y_on_v``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import fock
from .errors import ConfigError, IndefiniteOperatorError, SolverError
from .fock import FockBasis, orbits
from .grid import FormFactor, MomentumGrid
from .spectral import SolverConfig, SpdSolver, ground_energy, nu

Momentum = Union[float, Sequence[float], np.ndarray]

_log = logging.getLogger("polaronlab")

#: restriction tags for resolvent handles
TAIL_ONE = "tail>=1"
TAIL_TWO = "tail>=2"
FULL = "full"

#: regularizations of the Birman-Schwinger limit check, largest first
BS_LADDER = (1e-1, 1e-2, 1e-3)


def _handle_diagonal(
    p_state: np.ndarray, offsets: np.ndarray, momentum: np.ndarray, shift: float, start: int
) -> np.ndarray:
    """``(P + momentum)^2 + N + shift`` on the tail from ``start``: the
    kinetic part, then each sector's boson number (``offsets`` are the
    basis's sector offsets), then the shift, added in place."""
    out = fock.squared_momenta(p_state, momentum, start)
    bounds = np.maximum(offsets - start, 0)
    for n in range(len(bounds) - 1):
        out[bounds[n] : bounds[n + 1]] += n
    out += shift
    return out


@dataclass(eq=False)
class ResolventHandle:
    """One resolvent: restriction, momentum shift, scalar shift.

    The restriction is the tail of the full space from index ``start`` on.
    Its matrix is the workspace's one ``Phi`` on that tail plus the
    diagonal ``(P+k)^2 + N + shift``.  Its ``solver`` holds that ``Phi`` and
    the call that derives the diagonal from ``k`` and ``shift`` on each
    solve (``_handle_diagonal``), at every dimension: no handle keeps a
    factor or a tail-length vector.  ``solve`` and ``apply`` are the only
    ways to solve against it, and ``solves`` counts every right-hand side
    they take.
    """

    kind: str
    k: np.ndarray
    shift: float
    start: int
    solver: SpdSolver
    solves: int = 0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve on the tail for one vector or a block of columns."""
        self.solves += 1 if rhs.ndim == 1 else rhs.shape[1]
        return self.solver.solve(rhs)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Full-space vector in, full-space vector out: the resolvent acts on
        the tail and the sectors below ``start`` come back zero."""
        out = np.zeros(len(vec))
        out[self.start :] = self.solve(vec[self.start :])
        return out


@dataclass(eq=False)
class ReductionBundle:
    """The reduction objects of one instance at ``eps = 0``.

    Built by ``ReductionWorkspace.build_bundle``.  ``cmat_ext`` is the
    kernel ``C`` on grid modes plus the zero momentum: row/column 0 is the
    zero-momentum point, rows/columns ``1..M`` are the grid modes in grid
    order.  ``dmat`` is ``D(0)`` and ``omat`` the one-particle Schur
    complement ``O(0)``.  ``coupling_active`` records ``g > 0``: only then
    do ``c0 > 0`` and the contraction bound enter the standing assumptions.
    At free coupling ``c0`` is ``1/(1+e0) - 1/(1-e0)`` with ``e0 = 0``, zero
    but for the rounding of ``e0``, so ``c0_positive`` is false there
    whatever that rounding; ``phi`` and ``smat`` are ``None`` unless
    ``c0_positive``, and the decomposition is then reported absent.
    """

    e0: float
    mode_norms: np.ndarray
    v: np.ndarray
    e_k: np.ndarray
    dmat: np.ndarray
    cmat_ext: np.ndarray
    c0: float
    amat: np.ndarray
    omat: np.ndarray
    coupling_active: bool
    phi: Optional[np.ndarray] = None
    smat: Optional[np.ndarray] = None
    nu1: Optional[float] = None
    nu2: Optional[float] = None

    @property
    def c0_positive(self) -> bool:
        return self.coupling_active and self.c0 > 0.0

    @property
    def cmat(self) -> np.ndarray:
        """Kernel ``C`` restricted to grid modes."""
        return self.cmat_ext[1:, 1:]

    @property
    def a_norm(self) -> float:
        return float(np.max(np.abs(sla.eigvalsh(self.amat))))

    @property
    def phi_norm(self) -> Optional[float]:
        return None if self.phi is None else float(np.linalg.norm(self.phi))

    def s_min_eigenvalue(self) -> Optional[float]:
        if self.smat is None:
            return None
        return float(sla.eigvalsh(self.smat)[0])

    def assumptions(self) -> dict:
        """The standing assumptions: ``e0 > -1``, ``nu2 > 0`` and, at
        non-zero coupling, ``c0 > 0`` and ``||A|| < 1``."""
        a_norm = self.a_norm if self.coupling_active else None
        checks = {
            "e0_above_minus_one": self.e0 > -1.0,
            "tail_gap_positive": self.nu2 > 0.0,
            "c0_positive": self.c0_positive,
            "contraction": None if a_norm is None else a_norm < 1.0,
        }
        hold = checks["e0_above_minus_one"] and checks["tail_gap_positive"]
        if self.coupling_active:
            hold = hold and checks["c0_positive"] and bool(checks["contraction"])
        return {
            "e0": self.e0,
            "nu2": self.nu2,
            "c0": self.c0,
            "a_norm": a_norm,
            "coupling_active": self.coupling_active,
            **checks,
            "all_hold": bool(hold),
        }

    def bs_limit_check(self) -> dict:
        """Regularized Birman-Schwinger infima against ``min spec S``.

        For each value ``eps`` of ``BS_LADDER`` computes the smallest
        eigenvalue of ``(k^2 + eps)^{-1/2} O(0) (k^2 + eps)^{-1/2}`` and
        reports the gap of the last one to the smallest eigenvalue of ``S``.
        """
        ksq = self.mode_norms**2
        values = []
        for eps in BS_LADDER:
            scale = 1.0 / np.sqrt(ksq + eps)
            weighted = scale[:, None] * self.omat * scale[None, :]
            values.append(float(sla.eigvalsh(weighted)[0]))
        target = self.s_min_eigenvalue()
        gap = None if target is None else abs(values[-1] - target)
        return {
            "eps_ladder": list(BS_LADDER),
            "values": values,
            "s_min_eigenvalue": target,
            "final_gap": gap,
        }


class ReductionWorkspace:
    """Shared state for all reduction computations on one instance.

    Builds the Hamiltonian once, solves for the ground energy, hands out
    resolvent handles cached by restriction and shift, and owns the one
    ``ReductionBundle`` of its level (``build_bundle``).  ``Phi``
    restricted to each of ``FULL``, ``TAIL_ONE`` and ``TAIL_TWO`` is built
    once, when first asked for, and every handle on that restriction gets
    the same matrix: the handles differ only in their diagonals, which each
    solve derives from the state momenta ``p_state`` and the sector layout,
    and ``restricted_matrix`` is that shared part plus the same diagonal.
    Each handle's ``SpdSolver`` certifies that handle on its own, in the
    sign gauge ``signs`` (``fock.sign_gauge``) sliced to its tail, and
    solves it by Jacobi PCG on ``Phi`` and the derived diagonal;
    ``config.dense_threshold`` reaches only the eigenpair lists.  All
    public methods treat vectors in the full Fock space; restrictions are
    handled internally through the contiguous sector layout.

    ``symmetry`` is the instance's point group (``fock.symmetry``).  The
    ground energy, its vector and the bundle's ``nu1``/``nu2`` are solved
    on the trivial block of its sign flips (see the ``spectral`` module
    docstring), and the grid kernels only on the orbit representatives of
    the whole group (see the module docstring).  Construction logs the
    orbit counts at DEBUG level, and the blocks log their dimensions.
    """

    def __init__(
        self,
        grid: MomentumGrid,
        ff: FormFactor,
        basis: FockBasis,
        config: Optional[SolverConfig] = None,
        xi: Optional[Sequence[float]] = None,
    ):
        if basis.nmax < 2:
            raise ConfigError("the reduction needs at least two boson sectors (nmax >= 2)")
        self.grid = grid
        self.ff = ff
        self.basis = basis
        self.config = config or SolverConfig()
        self.xi = np.zeros(grid.d) if xi is None else np.asarray(xi, dtype=float)
        if self.xi.shape != (grid.d,):
            raise ConfigError(f"xi has shape {self.xi.shape}, expected ({grid.d},)")

        self.phi_op = fock.field_operator(basis, ff)
        self.p_state = basis.momentum_sums(grid)
        self.start1 = basis.tail_start(1)
        self.start2 = basis.tail_start(2)
        self._offs: Dict[str, sp.csr_matrix] = {}
        self.hamiltonian = self.restricted_matrix(FULL, np.zeros(grid.d), 0.0)
        self.symmetry = fock.symmetry(basis, grid, ff, self.xi)
        self.e0, self.ground_vector = ground_energy(self.hamiltonian, self.symmetry, self.config)
        # mode j <-> the 1-boson basis state carrying that mode
        self.mode_state = basis.rank(np.eye(basis.n_modes, dtype=np.int32))
        #: the coupling amplitudes in the 1-boson sector: the field's raising part on the vacuum
        self.v = np.zeros(basis.dim)
        self.v[self.mode_state] = ff.values
        n_sums, blocks = self._sum_orbits
        perms = self.symmetry.mode_perms
        _log.debug(
            "point group of order %d: %d mode orbits, %d of %d Z(s) sums",
            len(perms), len(np.unique(orbits(perms)[0])), len(blocks), n_sums,
        )
        self._handles: Dict[Tuple, ResolventHandle] = {}
        #: sign gauge in which every handle matrix is a Z-matrix (a tail's is its slice)
        self.signs = fock.sign_gauge(basis, ff)
        self._u_cache: Dict[bytes, np.ndarray] = {}
        self._bundle: Optional[ReductionBundle] = None
        self.schur_gap = abs(self.e0 - self.vacuum_kinetic() + self.vacuum_schur(1.0))
        if self.schur_gap > 1e-6:
            raise SolverError(
                f"ground energy fails its vacuum Schur cross-check by {self.schur_gap:.3e}"
            )

    # -- low-level operator plumbing ------------------------------------

    def _as_momentum(self, k: Momentum) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(k, dtype=float))
        if arr.shape != (self.grid.d,):
            raise ConfigError(f"momentum has shape {arr.shape}, expected ({self.grid.d},)")
        return arr

    def kinetic_diagonal(self, k: Momentum, start: int = 0) -> np.ndarray:
        """Diagonal of ``(P + k - xi)^2`` on the tail from ``start``."""
        return fock.squared_momenta(self.p_state, self._as_momentum(k) - self.xi, start)

    def vacuum_kinetic(self) -> float:
        """Kinetic energy of the vacuum state (``|xi|^2``)."""
        return float(self.xi @ self.xi)

    def _start(self, kind: str) -> int:
        return {FULL: 0, TAIL_ONE: self.start1, TAIL_TWO: self.start2}[kind]

    def _off_diagonal(self, kind: str) -> sp.csr_matrix:
        """``Phi`` on the given restriction, built on first use and shared by
        every handle there."""
        off = self._offs.get(kind)
        if off is None:
            start = self._start(kind)
            off = self._offs[kind] = self.phi_op[start:, start:] if start else self.phi_op
        return off

    def _diagonal(self, kind: str, k: Momentum, shift: float) -> partial:
        """The call that derives the diagonal of ``(P+k)^2 + N + shift`` on
        the given restriction (``_handle_diagonal``).  It holds the
        workspace's shared arrays, not the workspace, so no handle keeps
        its workspace alive."""
        momentum = self._as_momentum(k) - self.xi
        return partial(
            _handle_diagonal, self.p_state, self.basis.sector_offsets, momentum, shift,
            self._start(kind),
        )

    def restricted_matrix(self, kind: str, k: Momentum, shift: float) -> sp.csr_matrix:
        """Matrix of ``(P+k)^2 + Phi + N + shift`` on the given restriction."""
        return self._off_diagonal(kind) + sp.diags(self._diagonal(kind, k, shift)(), format="csr")

    def _handle(self, kind: str, k: Momentum, shift: float) -> ResolventHandle:
        k = self._as_momentum(k)
        key = (kind, k.tobytes(), round(shift, 14))
        handle = self._handles.get(key)
        if handle is None:
            start = self._start(kind)
            solver = SpdSolver(
                self._off_diagonal(kind), self._diagonal(kind, k, shift),
                label=f"{kind} resolvent at k={k.tolist()}", signs=self.signs[start:],
            )
            handle = ResolventHandle(kind=kind, k=k, shift=shift, start=start, solver=solver)
            self._handles[key] = handle
        return handle

    def z_handle(self, s: Momentum) -> ResolventHandle:
        """Full-space resolvent of ``(P+s)^2 + Phi + N + 1 - e0``."""
        return self._handle(FULL, s, 1.0 - self.e0)

    def x_handle(self, eps: float = 0.0) -> ResolventHandle:
        """Resolvent of ``H - e0 - 1 + eps`` on the >=2 tail."""
        if eps < 0:
            raise ConfigError(f"regularization must be >= 0, got {eps}")
        return self._handle(TAIL_TWO, np.zeros(self.grid.d), eps - 1.0 - self.e0)

    def apply_y(self, k: Momentum, vec: np.ndarray) -> np.ndarray:
        """Apply ``Y(k)``, the resolvent of ``(P+k)^2 + Phi + N - e0``, to the
        >=1 tail of a full-space vector."""
        return self._handle(TAIL_ONE, k, -self.e0).apply(vec)

    def apply_z(self, s: Momentum, vec: np.ndarray) -> np.ndarray:
        """Apply ``Z(s)`` to a full-space vector."""
        return self.z_handle(s).apply(vec)

    def apply_x(self, vec: np.ndarray) -> np.ndarray:
        """Apply ``X(0)`` to the >=2 tail of a full-space vector."""
        return self.x_handle().apply(vec)

    def project_tail(self, vec: np.ndarray, n: int) -> np.ndarray:
        """Zero out all sectors below ``n``."""
        out = vec.copy()
        out[: self.basis.tail_start(n)] = 0.0
        return out

    def project_sector(self, vec: np.ndarray, n: int) -> np.ndarray:
        """Keep only the ``n``-boson sector."""
        out = np.zeros_like(vec)
        sec = self.basis.sector_range(n)
        out[sec.start : sec.stop] = vec[sec.start : sec.stop]
        return out

    def vacuum_vector(self) -> np.ndarray:
        out = np.zeros(self.basis.dim)
        out[0] = 1.0
        return out

    def sector1_components(self, vec: np.ndarray) -> np.ndarray:
        """1-boson sector of a full vector as an M-vector in mode order."""
        return vec[self.mode_state]

    # -- scalar reduction objects ----------------------------------------

    def vacuum_schur(self, eps: float) -> float:
        """Vacuum Schur scalar ``<v| (H|>=1 - 1 - e0 + eps)^{-1} |v>``.

        Strictly decreasing in ``eps``; at ``eps = 1`` it returns the
        ground energy through ``e0 = <vacuum kinetic> - <v|Y(0)|v>``.
        """
        handle = self._handle(TAIL_ONE, np.zeros(self.grid.d), eps - 1.0 - self.e0)
        rhs = self.v[handle.start :]
        return float(rhs @ handle.solve(rhs))

    def y_on_v(self, k: Momentum) -> np.ndarray:
        """Cached ``Y(k)|v>`` as a full-space vector."""
        k = self._as_momentum(k)
        key = k.tobytes()
        got = self._u_cache.get(key)
        if got is None:
            got = self.apply_y(k, self.v)
            self._u_cache[key] = got
        return got

    def energy_curve(self, k: Momentum) -> float:
        """Mode energy ``E(k) = -<v|Y(k)|v>`` (equals ``e0`` at ``k = 0``)."""
        return -float(self.v @ self.y_on_v(k))

    # -- point-group orbits ------------------------------------------------

    def _members(self, perms: np.ndarray, held: np.ndarray, items, start: int = 0) -> np.ndarray:
        """Columns ``items`` of a covariant family (``col[perms[g, x]] = U_g
        col[x]``) held as its orbit representatives' columns ``held``, on
        the tail from ``start``: each is its representative's, moved by
        ``U_g`` for the carrier ``g`` of its item, one scatter per carrier."""
        rep, carrier = orbits(perms)
        out = held[:, np.searchsorted(np.unique(rep), rep[items])]
        for g in np.unique(carrier[items]):
            if g:
                at = np.flatnonzero(carrier[items] == g)
                out[self.symmetry.basis_perm(int(g))[start:, None] - start, at] = out[:, at]
        return out

    def _orbit_kernel(
        self, perms: np.ndarray, a: np.ndarray, b: np.ndarray, start: int = 0
    ) -> np.ndarray:
        """Symmetric kernel ``K(x, y) = <a_x, b_y>`` of two covariant families
        held as their representatives' columns ``a`` and ``b`` on the tail
        from ``start``.

        Only the rows ``K(r, y)`` of representatives ``r`` are formed, on the
        columns ``b_y`` of one carrier at a time (``_members``); every other
        row is ``K(g r, g y) = K(r, y)``.  Each entry above the diagonal is
        then its mirror's, so ``K`` is exactly symmetric.
        """
        rep, carrier = orbits(perms)
        reps = np.unique(rep)
        rows = np.empty((len(reps), len(rep)))
        for g in np.unique(carrier):
            items = np.flatnonzero(carrier == g)
            rows[:, items] = a.T @ self._members(perms, b, items, start)
        out = np.empty((len(rep), len(rep)))
        for perm in perms:
            out[perm[reps, None], perm] = rows
        upper = np.triu_indices(len(rep), 1)
        out[upper] = out.T[upper]
        return out

    @cached_property
    def _point_perms(self) -> np.ndarray:
        """Group action on the extended-kernel points (zero stays first)."""
        fixed = np.zeros((len(self.symmetry.mode_perms), 1), dtype=np.int64)
        return np.hstack([fixed, 1 + self.symmetry.mode_perms])

    @cached_property
    def _sum_orbits(self) -> Tuple[int, list]:
        """The ``Z(s)`` solves of ``c_matrix``: one per orbit of sums.

        Point pairs ``i <= j`` of the extended kernel are grouped by their
        sum ``s = p_i + p_j``.  Returns the number of distinct sums and, for
        each sum that represents its orbit, ``(s, first, second)``: the
        pairs of that sum that represent their own orbits.  Every point
        pair is the image of exactly one of them under the group.
        """
        points = np.vstack([np.zeros((1, self.grid.d), dtype=np.int64), self.grid.index])
        n = len(points)
        pair_i, pair_j = np.triu_indices(n)
        keys, first, pair_sum = np.unique(
            points[pair_i] + points[pair_j], axis=0, return_index=True, return_inverse=True
        )
        pair_sum = pair_sum.ravel()
        perms = self._point_perms
        lo = np.minimum(perms[:, pair_i], perms[:, pair_j])
        hi = np.maximum(perms[:, pair_i], perms[:, pair_j])
        pair_perms = lo * n - lo * (lo - 1) // 2 + hi - lo  # row-major index of (lo, hi)
        # g carries a pair of sum s to a pair of sum g s
        sum_rep, _ = orbits(pair_sum[pair_perms[:, first]])
        # a pair orbit is represented by its lowest pair whose sum represents its orbit
        eligible = sum_rep[pair_sum] == pair_sum
        lowest = np.where(eligible[pair_perms], pair_perms, len(pair_i)).min(axis=0)
        own = lowest == np.arange(len(pair_i))
        momenta = self._c_points()
        blocks = []
        for s in np.flatnonzero(sum_rep == np.arange(len(keys))):
            pairs = np.flatnonzero(own & (pair_sum == s))
            at = first[s]
            blocks.append(
                (momenta[pair_i[at]] + momenta[pair_j[at]], pair_i[pairs], pair_j[pairs])
            )
        return len(keys), blocks

    # -- kernels ---------------------------------------------------------

    def d_kernel(self, eps: float = 0.0) -> np.ndarray:
        """Direct kernel ``D(k,l) = <v| a_k X(eps) a_l^+ |v>`` on grid modes.

        This is the exact Schur coupling of the truncated operator through
        the >=2 tail (no pull-through rewriting involved).  ``X(eps)`` is
        solved on the raised column of each mode orbit's representative.
        """
        raised = self._raised_v
        solved = self.x_handle(eps).solve(raised)
        return self._orbit_kernel(self.symmetry.mode_perms, raised, solved, self.start2)

    @cached_property
    def _raised_v(self) -> np.ndarray:
        """Columns ``a_r^+ |v>`` on the >=2 tail, one per mode orbit, of its
        representative ``r``, from one creator each."""
        reps = np.unique(orbits(self.symmetry.mode_perms)[0])
        return np.column_stack(
            [(fock.creator(self.basis, j) @ self.v)[self.start2 :] for j in reps]
        )

    @cached_property
    def raising_part(self) -> sp.csr_matrix:
        """Raising half of the coupling field (maps sector n to n+1).

        The basis is sector-major and ``Phi`` couples only adjacent
        sectors, so the entries that raise ``N`` are exactly those below
        the diagonal.
        """
        return sp.tril(self.phi_op, k=-1, format="csr")

    def _c_points(self) -> np.ndarray:
        """Momentum points of the extended kernel: zero first, then modes."""
        return np.vstack([np.zeros((1, self.grid.d)), self.grid.modes])

    def c_kernel(self, k: Momentum, l: Momentum) -> float:
        """Kernel ``C(k,l) = 1/(1+e0) - <w_k|Z(k+l)|w_l> - <Yv_k|X|Yv_l>``.

        Here ``w_k = vacuum - Y(k)|v>`` and ``Yv_k`` is the >=2 tail of
        ``Y(k)|v>``.  The sum ``k+l`` enters only through a diagonal, so
        the points need not be grid modes.
        """
        k = self._as_momentum(k)
        l = self._as_momentum(l)
        w_k = self.vacuum_vector() - self.y_on_v(k)
        w_l = self.vacuum_vector() - self.y_on_v(l)
        term1 = float(w_k @ self.apply_z(k + l, w_l))
        xk = self.y_on_v(k)[self.start2 :]
        xl = self.y_on_v(l)[self.start2 :]
        term2 = float(xk @ self.x_handle(0.0).solve(xl))
        return 1.0 / (1.0 + self.e0) - term1 - term2

    def c_matrix(self) -> np.ndarray:
        """Extended kernel ``C`` on zero + all grid modes, batched solves.

        ``u = Y(p)|v>`` and ``X(0)`` on its >=2 tail are solved and held
        for one point per orbit, and ``Z(s)`` for one sum per orbit of sums;
        the columns of ``w = vacuum - u`` are formed from their
        representatives' only where a ``Z(s)`` block needs them, the block's
        right-hand sides at once and each left factor one column at a time.
        Every other entry is ``C(gk, gl) = C(k, l)``, and ``C`` is exactly
        symmetric.
        """
        points = self._c_points()
        perms = self._point_perms
        u = np.column_stack([self.y_on_v(points[r]) for r in np.unique(orbits(perms)[0])])
        g2 = u[self.start2 :]
        term2 = self._orbit_kernel(perms, g2, self.x_handle(0.0).solve(g2), self.start2)

        def w(items):
            out = self._members(perms, u, items)
            np.negative(out, out=out)
            out[0] += 1.0  # vacuum component
            return out

        first, second, vals = [], [], []
        for s, pair_i, pair_j in self._sum_orbits[1]:
            cols = np.unique(pair_j)
            solved = self.z_handle(s).solve(w(cols))
            for i, j in zip(pair_i, pair_j):
                vals.append(float(w([i])[:, 0] @ solved[:, np.searchsorted(cols, j)]))
            first.append(pair_i)
            second.append(pair_j)
        first, second, vals = np.concatenate(first), np.concatenate(second), np.array(vals)
        term1 = np.empty((len(points), len(points)))
        for perm in perms:
            term1[perm[first], perm[second]] = vals
            term1[perm[second], perm[first]] = vals
        return 1.0 / (1.0 + self.e0) - term1 - term2

    def lambda_direct(self, k: Momentum) -> float:
        """Transfer scalar ``lam(k) = <w_k|Z(k)|w_0> + <Yv_k|X|Yv_0>``.

        Evaluated on its own solve chain; coincides with
        ``1/(1+e0) - C(k, 0)`` by construction, so the pair of code paths
        cross-checks the kernel bookkeeping.
        """
        k = self._as_momentum(k)
        w_k = self.vacuum_vector() - self.y_on_v(k)
        w_0 = self.vacuum_vector() - self.y_on_v(np.zeros(self.grid.d))
        term1 = float(w_k @ self.apply_z(k, w_0))
        xk = self.y_on_v(k)[self.start2 :]
        x0 = self.y_on_v(np.zeros(self.grid.d))[self.start2 :]
        term2 = float(xk @ self.x_handle(0.0).solve(x0))
        return term1 + term2

    # -- bundle assembly ---------------------------------------------------

    def one_particle_operator(self, eps: float, dmat: Optional[np.ndarray] = None) -> np.ndarray:
        """Schur complement on the 1-boson sector at spectral offset ``eps``.

        ``O(eps) = eps + k^2 - e0 - D(eps) + |v><v| / (1 + e0 - eps)`` as an
        ``M x M`` matrix; its zero eigenvalues flag fiber eigenvalues at
        energy ``e0 + 1 - eps``.  A nonzero fiber shift is folded into the
        kinetic diagonals (one-boson and vacuum blocks alike), which keeps
        the matrix the exact Schur complement of the fiber Hamiltonian.
        """
        if not 0.0 <= eps <= 1.0:
            raise ConfigError(f"spectral offset must lie in [0, 1], got {eps}")
        kin = self.kinetic_diagonal(np.zeros(self.grid.d))
        denom = 1.0 + self.e0 - eps - float(kin[0])
        if abs(denom) < 1e-12:
            raise IndefiniteOperatorError(
                f"vacuum block is singular at eps={eps} (e0={self.e0})"
            )
        if dmat is None:
            dmat = self.d_kernel(eps)
        vvals = self.ff.values
        return np.diag(eps + kin[self.mode_state] - self.e0) - dmat + np.outer(vvals, vvals) / denom

    def build_bundle(self) -> ReductionBundle:
        """Every reduction object of this instance at ``eps = 0``.

        Assembled on the first call; every later call returns that same
        object.  The momentum-weighted decomposition (``A``, ``phi``,
        ``S``) is a zero-fiber-shift construction, so a workspace with a
        nonzero shift cannot build a bundle.
        """
        if self._bundle is not None:
            return self._bundle
        if float(np.linalg.norm(self.xi)) != 0.0:
            raise ConfigError(
                "the weighted decomposition requires a zero fiber shift; "
                "spectra and Schur complements remain available"
            )
        modes = self.grid.modes
        norms = self.grid.norms()
        vvals = self.ff.values
        cext = self.c_matrix()
        c0 = float(cext[0, 0])
        psi = cext[1:, 0] - c0
        fmat = cext[1:, 1:] - c0 - psi[:, None] - psi[None, :]
        rep, _ = orbits(self.symmetry.mode_perms)
        e_k = np.array([self.energy_curve(modes[r]) for r in rep])

        amat = np.diag((e_k - self.e0) / norms**2) + (
            (vvals / norms)[:, None] * fmat * (vvals / norms)[None, :]
        )
        phi = None
        smat = None
        coupling_active = self.ff.g > 0.0
        if coupling_active and c0 > 0.0:
            phi = vvals * psi / (np.sqrt(c0) * norms)
            smat = np.eye(len(norms)) + amat - np.outer(phi, phi)

        dmat = self.d_kernel(0.0)
        omat = self.one_particle_operator(0.0, dmat=dmat)
        nu1 = nu(self.hamiltonian, self.e0, 1, self.symmetry, self.config)
        nu2 = nu(self.hamiltonian, self.e0, 2, self.symmetry, self.config)
        self._bundle = ReductionBundle(
            e0=self.e0,
            mode_norms=norms,
            v=vvals.copy(),
            e_k=e_k,
            dmat=dmat,
            cmat_ext=cext,
            c0=c0,
            amat=amat,
            omat=omat,
            coupling_active=coupling_active,
            phi=phi,
            smat=smat,
            nu1=nu1,
            nu2=nu2,
        )
        return self._bundle


def build_workspace(
    grid: MomentumGrid,
    ff: FormFactor,
    nmax: int,
    config: Optional[SolverConfig] = None,
    xi: Optional[Sequence[float]] = None,
    fock_cap: int = fock.DEFAULT_FOCK_CAP,
) -> ReductionWorkspace:
    """Convenience constructor: enumerate the basis and set up a workspace."""
    basis = fock.enumerate_basis(grid.size, nmax, cap=fock_cap)
    return ReductionWorkspace(grid, ff, basis, config=config, xi=xi)
