"""Symmetric momentum grids and coupling form factors.

The single-boson momenta live on the lattice ``h * Z^d`` intersected with
the cube ``[-K, K]^d``, with the origin removed.  A form factor attaches a
real, even amplitude ``v_k = g * w(k) * h**(d/2)`` to every mode; the
``h**(d/2)`` quadrature weight is folded in once here so that all
downstream operators are plain weighted sums over modes.  ``stabilizer``
picks the signed coordinate permutations of the grid that fix a fiber
momentum and a form factor: the symmetry group of one instance;
``point_group`` refuses a group table over ``POINT_GROUP_CAP`` entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DimensionCapError

#: profiles available for the radial amplitude w(k)
PROFILES = ("froehlich", "gaussian", "constant")

DEFAULT_MODE_CAP = 16384
#: most entries ``d * 2**d * d! * M`` that ``MomentumGrid.point_group`` may
#: hold in its int64 table of moved modes (0.5 GB); passes every d <= 3 grid
#: under the mode cap and refuses d >= 6 at K = h = 1
POINT_GROUP_CAP = 2**26


@dataclass(frozen=True, eq=False)
class MomentumGrid:
    """Finite symmetric momentum grid.

    Attributes
    ----------
    d : spatial dimension (>= 1)
    K : cube half-width, a positive integer multiple of ``h``
    h : lattice spacing (> 0)
    index : integer coordinates of the modes, shape ``(M, d)``; mode ``j``
        sits at momentum ``index[j] * h``.  Ordered lexicographically by
        integer coordinates; the origin is excluded.
    """

    d: int
    K: float
    h: float
    index: np.ndarray = field(repr=False)

    @property
    def modes(self) -> np.ndarray:
        """Momentum vectors, shape ``(M, d)`` float64."""
        return self.index * self.h

    @property
    def size(self) -> int:
        return self.index.shape[0]

    def norms(self) -> np.ndarray:
        """Euclidean norm |k| of every mode, shape ``(M,)``, from the exact
        integer sum of squares, so the point group keeps it to the last bit."""
        return self.h * np.sqrt(np.sum(self.index**2, axis=1))

    def point_group(self) -> Tuple[np.ndarray, np.ndarray]:
        """Signed coordinate permutations and the mode permutations they induce.

        Returns ``(ops, perms)``: ``ops[g]`` is one of the ``2**d * d!``
        signed permutation matrices (the identity first, ``-I`` among them),
        and ``perms[g, j]`` is the mode at ``ops[g] @ k_j``.  The cube grid
        is closed under every one of them.  A group table over
        ``POINT_GROUP_CAP`` entries is a ``DimensionCapError``, raised before
        anything is built.
        """
        d = self.d
        entries = d * 2**d * math.factorial(d) * self.size
        if entries > POINT_GROUP_CAP:
            raise DimensionCapError(
                f"point group of d={d} on {self.size} modes needs {entries} table entries, "
                f"cap is {POINT_GROUP_CAP}"
            )
        ops = []
        for axes in itertools.permutations(range(d)):
            for signs in itertools.product((1, -1), repeat=d):
                op = np.zeros((d, d), dtype=np.int64)
                op[np.arange(d), axes] = signs
                ops.append(op)
        ops = np.array(ops)
        m = int(round(self.K / self.h))
        lookup = np.full((2 * m + 1,) * d, -1, dtype=np.int64)
        lookup[tuple((self.index + m).T)] = np.arange(self.size)
        moved = np.einsum("gab,jb->agj", ops, self.index) + m
        return ops, lookup[tuple(moved)]


@dataclass(frozen=True, eq=False)
class FormFactor:
    """Even real coupling amplitudes on a grid.

    ``values[j]`` is ``v_k = g * w(k_j) * h**(d/2)`` for mode ``j``.
    """

    profile: str
    g: float
    alpha: float
    values: np.ndarray = field(repr=False)

    @property
    def norm(self) -> float:
        """l2 norm of the amplitude vector."""
        return float(np.linalg.norm(self.values))


def build_grid(d: int, K: float, h: float, mode_cap: int = DEFAULT_MODE_CAP) -> MomentumGrid:
    """Construct the symmetric grid ``h*Z^d`` in ``[-K, K]^d`` minus the origin.

    The mode count is ``(2K/h + 1)**d - 1``; ``K`` must be a positive
    integer multiple of ``h``.
    """
    if d < 1:
        raise ConfigError(f"dimension must be >= 1, got {d}")
    if h <= 0:
        raise ConfigError(f"spacing must be positive, got {h}")
    if K <= 0:
        raise ConfigError(f"half-width must be positive, got {K}")
    steps = K / h
    m = int(round(steps))
    if m < 1 or abs(steps - m) > 1e-9:
        raise ConfigError(f"K={K} is not a positive integer multiple of h={h}")
    count = (2 * m + 1) ** d - 1
    if count > mode_cap:
        raise DimensionCapError(f"grid would have {count} modes, cap is {mode_cap}")
    axis = np.arange(-m, m + 1, dtype=np.int64)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    index = np.stack([g.ravel() for g in mesh], axis=1)
    index = index[np.any(index != 0, axis=1)]
    # meshgrid with 'ij' already yields lexicographic order on the tuples
    return MomentumGrid(d=d, K=float(K), h=float(h), index=index)


def _profile_amplitude(profile: str, norms: np.ndarray, alpha: float) -> np.ndarray:
    if profile == "froehlich":
        return norms ** (-alpha)
    if profile == "gaussian":
        return np.exp(-(norms**2))
    if profile == "constant":
        return np.ones_like(norms)
    raise ConfigError(f"unknown form-factor profile {profile!r}, expected one of {PROFILES}")


def sample_form_factor(
    grid: MomentumGrid, profile: str, g: float, alpha: float = 1.0
) -> FormFactor:
    """Sample ``v_k = g * w(k) * h**(d/2)`` on every grid mode.

    The singular profile exponent ``alpha`` only applies to ``froehlich``;
    it must satisfy ``0 < alpha < d`` so that the squared amplitude stays
    locally summable under refinement.
    """
    if g < 0:
        raise ConfigError(f"coupling must be non-negative, got {g}")
    if profile == "froehlich" and not 0 < alpha < grid.d:
        raise ConfigError(
            f"froehlich exponent must satisfy 0 < alpha < d={grid.d}, got {alpha}"
        )
    norms = grid.norms()
    weight = grid.h ** (grid.d / 2.0)
    values = g * _profile_amplitude(profile, norms, alpha) * weight
    if not np.all(np.isfinite(values)):
        raise ConfigError("form factor produced non-finite amplitudes")
    return FormFactor(profile=profile, g=float(g), alpha=float(alpha), values=values)


def stabilizer(
    grid: MomentumGrid, ff: FormFactor, xi: Optional[Sequence[float]] = None
) -> np.ndarray:
    """Mode permutations of the point-group elements that fix ``xi`` and the
    form factor exactly, in ``MomentumGrid.point_group`` order (the identity
    first); shape ``(order, M)``.  ``xi`` defaults to zero."""
    xi = np.zeros(grid.d) if xi is None else np.asarray(xi, dtype=float)
    ops, perms = grid.point_group()
    keep = [
        g for g in range(len(ops))
        if np.array_equal(ops[g] @ xi, xi) and np.array_equal(ff.values[perms[g]], ff.values)
    ]
    return perms[keep]
