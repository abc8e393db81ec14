"""Numerical verification of the operator identities behind the reduction.

Each ``verify_*`` routine evaluates both sides of one identity on probe
vectors (or assembles both sides as matrices) across a ladder of
truncation levels and reports residuals in an :class:`IdentityReport`.

Classification ledger:

* ``exact`` identities are pure block/resolvent algebra of the truncated
  operators; their residuals are solver-tolerance-level at every level.
  These are: the two resolvent splitting identities, the vacuum Schur
  fixed point, the three c0 identities, and the kernel rearrangement.
* ``truncation-limited`` identities inherit the broken canonical
  commutation relation at the top sector; their residuals are genuinely
  nonzero and must shrink as the truncation level grows.  These are: the
  two pull-through identities in resolvent form, the lambda transfer
  formula, and the norm-identity chain.
* ``oracle-limited`` marks the energy-derivative checks, whose reference
  values come from finite differences rather than from exact algebra.

Pull-through checks come in two forms.  The *local* form compares the
forward operators (no resolvents); the canonical commutation relation
break sits only in the top sector, so probes supported in sectors up to
``nmax - 2`` give clean residuals at every level.  The *resolvent* form
applies the inverted identity; any resolvent output touches the top
sector, so its residual is truncation-limited even for protected probes
and is tracked as a decreasing ladder instead.

The spectral correspondence (``schur_equivalence_report``) matches fiber
eigenvalues in ``(e0, e0 + 1)`` with zeros of the one-particle Schur
complement ``O(eps)`` in both directions.  Each fiber eigenvalue's offset
gets a bracket of half-width ``BRACKET_DELTA``, and the kernel's inertia
counts at the two ends must drop by the number of fiber eigenvalues inside.
That decides the match because the count is nonincreasing in ``eps``:
every ordered eigenvalue of ``O(eps)`` rises with slope at least one away
from the vacuum pole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import logging
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from . import fock
from .errors import ConfigError, SolverError
from .reduction import FULL, TAIL_ONE, TAIL_TWO, ReductionBundle, ReductionWorkspace
from .spectral import MAX_ITERATIONS, eigenvalues_below, start_vector

_log = logging.getLogger("polaronlab")

#: half-width of the offset bracket around a fiber eigenvalue's offset;
#: offsets closer than twice this share one bracket
BRACKET_DELTA = 1e-6

#: central-difference steps of the energy-curve gradient and Hessian checks
FD_STEP = 1e-4
HESSIAN_STEP = 1e-3

#: offsets at which the vacuum Schur scalar must be strictly decreasing
VACUUM_SCHUR_LADDER = (0.5, 1.0, 1.5)

#: offset grid of the spectral correspondence
EPSILON_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

EXACT = "exact"
TRUNCATION_LIMITED = "truncation-limited"
ORACLE_LIMITED = "oracle-limited"

IDENTITY_IDS = (
    "pullthrough-creator",
    "pullthrough-annihilator",
    "resolvent-splitting-vacuum",
    "resolvent-splitting-one-boson",
    "vacuum-schur",
    "lambda-oneboson",
    "c0-identity",
    "rearrangement",
    "norm-identity",
    "energy-derivatives",
)

#: pass/fail bounds of the checks
THRESHOLDS = {
    "exact": 1e-9,
    "protected": 1e-8,
    "schur_fixed_point": 1e-8,
    "norm_identity": 1e-2,
    "gradient_rel": 1e-5,
    "gradient_origin": 1e-8,
    "hessian_rel": 1e-4,
    "equivalence": 1e-7,
}


@dataclass
class IdentityReport:
    """Residuals of one identity across the truncation ladder."""

    identity: str
    classification: str
    nmax_levels: List[int]
    #: residual component name -> one value per level (None where not applicable)
    residuals: Dict[str, List[Optional[float]]] = field(default_factory=dict)
    #: primary residual per level, used for trend assessment and tables
    summary: List[Optional[float]] = field(default_factory=list)
    threshold: Optional[float] = None
    passed: Optional[bool] = None
    details: Dict[str, object] = field(default_factory=dict)
    notes: str = ""


#: residuals at or below this count as converged in a truncation ladder
TREND_FLOOR = 1e-13


def _strictly_decreasing(values: Sequence[Optional[float]]) -> Optional[bool]:
    """True when each value beats the previous one, treating values at or
    below ``TREND_FLOOR`` as already converged (a residual that is zero to
    machine precision at every truncation cannot decrease further)."""
    vals = [v for v in values if v is not None]
    if len(vals) < 2:
        return None
    return all(b < a or b <= TREND_FLOOR for a, b in zip(vals, vals[1:]))


def _unit(vec: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(vec)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return vec / n


def _mode_sample(ws: ReductionWorkspace, count: int = 3) -> List[int]:
    m = ws.basis.n_modes
    return sorted(set([0, m // 2, m - 1]))[:count]


def _fixed_probes(ws: ReductionWorkspace) -> List[np.ndarray]:
    """Level-independent physical probes in the >=1 tail (unit norm)."""
    probes = []
    if ws.ff.norm > 0:
        probes.append(_unit(ws.v))
    else:
        e = np.zeros(ws.basis.dim)
        e[ws.mode_state[0]] = 1.0
        probes.append(e)
    two = np.zeros(ws.basis.n_modes, dtype=int)
    two[0] = 2
    e2 = np.zeros(ws.basis.dim)
    e2[ws.basis.index_of(two)] = 1.0
    probes.append(e2)
    return probes


def _protected_probes(ws: ReductionWorkspace) -> List[np.ndarray]:
    """Probes supported in sectors 1..nmax-2, away from the truncation edge."""
    rng = np.random.RandomState(ws.config.seed)
    probes: List[np.ndarray] = []
    for n in range(1, ws.basis.nmax - 1):
        sec = ws.basis.sector_range(n)
        for idx in {sec.start, sec.stop - 1}:
            e = np.zeros(ws.basis.dim)
            e[idx] = 1.0
            probes.append(e)
        mix = np.zeros(ws.basis.dim)
        mix[sec.start : sec.stop] = rng.standard_normal(sec.stop - sec.start)
        probes.append(_unit(mix))
    return probes


def _top_probe(ws: ReductionWorkspace) -> np.ndarray:
    """Deterministic top-sector basis state (all bosons in the softest mode)."""
    norms = ws.grid.norms()
    j = int(np.argmin(norms))
    occ = np.zeros(ws.basis.n_modes, dtype=int)
    occ[j] = ws.basis.nmax
    e = np.zeros(ws.basis.dim)
    e[ws.basis.index_of(occ)] = 1.0
    return e


# ---------------------------------------------------------------------------
# pull-through identities
# ---------------------------------------------------------------------------


def _pullthrough_local_residual(
    ws: ReductionWorkspace, kind: str, probe: np.ndarray, kj: int, lj: int, ladder, y_mat, outer
) -> float:
    """Forward-operator (local) form of the pull-through identity.

    creator:       X^{-1} a_k^+  =  a_k^+ Y(k)^{-1} + v_k on the >=2 tail
    annihilator:   a_l Y(k)^{-1} =  Z(k+l)^{-1} a_l + v_l on the >=1 tail

    ``ladder`` is the matrix of ``a_k^+`` (creator) or ``a_l`` (annihilator),
    ``y_mat`` that of ``Y(k)^{-1}`` and ``outer`` that of ``X^{-1}``
    (creator) or ``Z(k+l)^{-1}`` (annihilator).
    """
    y_inv = np.zeros(ws.basis.dim)
    y_inv[ws.start1 :] = y_mat @ probe[ws.start1 :]
    if kind == "creator":
        raised = ladder @ probe
        lhs = np.zeros(ws.basis.dim)
        lhs[ws.start2 :] = outer @ raised[ws.start2 :]
        rhs = ladder @ y_inv
        rhs[: ws.start2] = 0.0
        rhs += float(ws.ff.values[kj]) * ws.project_tail(probe, 2)
        return float(np.linalg.norm(lhs - rhs))
    lhs = ladder @ y_inv
    rhs = outer @ (ladder @ probe)
    rhs += float(ws.ff.values[lj]) * ws.project_tail(probe, 1)
    return float(np.linalg.norm(lhs - rhs))


def _pullthrough_resolvent_residual(
    ws: ReductionWorkspace, kind: str, probe: np.ndarray, kj: int, lj: int, ladder
) -> float:
    """Resolvent form of the pull-through identity.

    creator:       X a_k^+  =  a_k^+ Y(k) - v_k X Y(k)      on the >=1 tail
    annihilator:   a_l Y(k) =  Z(k+l) a_l - v_l Z(k+l) Y(k)  on the >=1 tail

    ``ladder`` is the matrix of ``a_k^+`` (creator) or ``a_l`` (annihilator).
    """
    k = ws.grid.modes[kj]
    if kind == "creator":
        lhs = ws.apply_x(ladder @ probe)
        yk = ws.apply_y(k, probe)
        rhs = ladder @ yk - float(ws.ff.values[kj]) * ws.apply_x(yk)
        return float(np.linalg.norm(lhs - rhs))
    l = ws.grid.modes[lj]
    yk = ws.apply_y(k, probe)
    lhs = ladder @ yk
    rhs = ws.apply_z(k + l, ladder @ probe)
    rhs -= float(ws.ff.values[lj]) * ws.apply_z(k + l, yk)
    return float(np.linalg.norm(lhs - rhs))


def verify_pullthrough(workspaces: Dict[int, ReductionWorkspace], kind: str) -> IdentityReport:
    """Check one pull-through identity across the truncation ladder.

    Reports three residual families per level: ``protected`` (local form
    on probes clear of the truncation edge; clean), ``ladder`` (resolvent
    form on fixed physical probes; shrinking with the level), and
    ``boundary`` (resolvent form on a top-sector probe; demonstrates the
    defect instead of hiding it).  Each level builds the ladder operator of
    every sampled mode, and each matrix of the local form, once.
    """
    if kind not in ("creator", "annihilator"):
        raise ConfigError(f"unknown pull-through kind {kind!r}")
    levels = sorted(workspaces)
    protected: List[Optional[float]] = []
    ladder: List[Optional[float]] = []
    boundary: List[Optional[float]] = []
    for nmax in levels:
        ws = workspaces[nmax]
        prot = _protected_probes(ws)
        kjs = _mode_sample(ws)
        pairs = [(kjs[0], kjs[-1]), (kjs[len(kjs) // 2], kjs[len(kjs) // 2])]
        # a_k^+ for the creator form, a_l for the annihilator form
        modes = [kj if kind == "creator" else lj for kj, lj in pairs]
        build = fock.creator if kind == "creator" else fock.annihilator
        ops = {j: build(ws.basis, j) for j in modes}
        cases = [(kj, lj, ops[j]) for (kj, lj), j in zip(pairs, modes)]
        if prot:
            # the local form's matrices, built once per level and case
            momenta = ws.grid.modes
            y_mats = {kj: ws.restricted_matrix(TAIL_ONE, momenta[kj], -ws.e0) for kj, _ in pairs}
            if kind == "creator":
                x_mat = ws.restricted_matrix(TAIL_TWO, np.zeros(ws.grid.d), -ws.e0 - 1.0)
                outers = [x_mat] * len(pairs)
            else:
                outers = [
                    ws.restricted_matrix(FULL, momenta[kj] + momenta[lj], 1.0 - ws.e0)
                    for kj, lj in pairs
                ]
            vals = [
                _pullthrough_local_residual(ws, kind, p, kj, lj, op, y_mats[kj], outer)
                for p in prot
                for (kj, lj, op), outer in zip(cases, outers)
            ]
            protected.append(max(vals))
        else:
            protected.append(None)
        lvals = [
            _pullthrough_resolvent_residual(ws, kind, p, kj, lj, op)
            for p in _fixed_probes(ws)
            for kj, lj, op in cases
        ]
        ladder.append(max(lvals))
        bvals = [
            _pullthrough_resolvent_residual(ws, kind, _top_probe(ws), kj, lj, op)
            for kj, lj, op in cases
        ]
        boundary.append(max(bvals))

    trend = _strictly_decreasing(ladder)
    prot_ok = all(v <= THRESHOLDS["protected"] for v in protected if v is not None)
    passed = prot_ok and (trend is not False)
    notes = "local form on protected sectors; resolvent form tracked as a ladder"
    if all(v is None for v in protected):
        notes += "; no protected sectors exist below nmax=3"
    return IdentityReport(
        identity=f"pullthrough-{kind}",
        classification=TRUNCATION_LIMITED,
        nmax_levels=levels,
        residuals={"protected": protected, "ladder": ladder, "boundary": boundary},
        summary=ladder,
        threshold=THRESHOLDS["protected"],
        passed=passed,
        details={"ladder_strictly_decreasing": trend},
        notes=notes,
    )


# ---------------------------------------------------------------------------
# resolvent splitting identities
# ---------------------------------------------------------------------------


def _splitting_probes(ws: ReductionWorkspace) -> List[np.ndarray]:
    rng = np.random.RandomState(ws.config.seed)
    probes = [ws.vacuum_vector(), _unit(rng.standard_normal(ws.basis.dim)), _top_probe(ws)]
    if ws.ff.norm > 0:
        probes.append(_unit(ws.v))
    return probes


def verify_resolvent_identities(
    workspaces: Dict[int, ReductionWorkspace],
) -> Tuple[IdentityReport, IdentityReport]:
    """Check the two exact resolvent splitting identities.

    vacuum form:     Y(k) Z(k) = Y(k) - Z(k) - Y(k)|v><vac| Z(k) + |vac><vac| Z(k)
    one-boson form:  X Y(0) = X - Y(0) + P1 Y(0) - X a^+(v) P1 Y(0)

    Both are plain block algebra of the truncated matrices, so residuals
    must sit at solver tolerance for arbitrary probes at every level.
    """
    levels = sorted(workspaces)
    res_vac: List[Optional[float]] = []
    res_one: List[Optional[float]] = []
    for nmax in levels:
        ws = workspaces[nmax]
        vac = ws.vacuum_vector()
        probes = _splitting_probes(ws)
        ks = [np.zeros(ws.grid.d)] + [ws.grid.modes[j] for j in _mode_sample(ws, 2)]
        worst = 0.0
        for k in ks:
            yv = ws.y_on_v(k)
            for p in probes:
                zp = ws.apply_z(k, p)
                lhs = ws.apply_y(k, zp)
                rhs = ws.apply_y(k, p) - zp - yv * zp[0] + vac * zp[0]
                worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        res_vac.append(worst)

        raising = ws.raising_part
        worst = 0.0
        for p in probes:
            p1 = ws.project_tail(p, 1)
            if np.linalg.norm(p1) == 0:
                continue
            y0p = ws.apply_y(np.zeros(ws.grid.d), p1)
            lhs = ws.apply_x(y0p)
            sec1 = ws.project_sector(y0p, 1)
            rhs = ws.apply_x(p1) - y0p + sec1 - ws.apply_x(raising @ sec1)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        res_one.append(worst)

    r1 = IdentityReport(
        identity="resolvent-splitting-vacuum",
        classification=EXACT,
        nmax_levels=levels,
        residuals={"probe_max": res_vac},
        summary=res_vac,
        threshold=THRESHOLDS["exact"],
        passed=all(v <= THRESHOLDS["exact"] for v in res_vac),
    )
    r2 = IdentityReport(
        identity="resolvent-splitting-one-boson",
        classification=EXACT,
        nmax_levels=levels,
        residuals={"probe_max": res_one},
        summary=res_one,
        threshold=THRESHOLDS["exact"],
        passed=all(v <= THRESHOLDS["exact"] for v in res_one),
    )
    return r1, r2


# ---------------------------------------------------------------------------
# vacuum Schur fixed point
# ---------------------------------------------------------------------------


def verify_vacuum_schur(workspaces: Dict[int, ReductionWorkspace]) -> IdentityReport:
    """Ground-energy fixed point of the vacuum Schur scalar.

    At offset 1 the scalar must return ``-e0`` exactly (the workspace's
    ``schur_gap``); along the offset ladder it must be strictly
    decreasing, which makes the fixed point unique.
    """
    levels = sorted(workspaces)
    gaps: List[Optional[float]] = []
    monotone_ok = True
    ladder_values = {}
    for nmax in levels:
        ws = workspaces[nmax]
        gaps.append(ws.schur_gap)
        vals = [ws.vacuum_schur(e) for e in VACUUM_SCHUR_LADDER]
        ladder_values[str(nmax)] = vals
        if ws.ff.norm > 0:
            monotone_ok = monotone_ok and all(b < a for a, b in zip(vals, vals[1:]))
        else:
            monotone_ok = monotone_ok and all(b <= a for a, b in zip(vals, vals[1:]))
    passed = all(g <= THRESHOLDS["schur_fixed_point"] for g in gaps) and monotone_ok
    return IdentityReport(
        identity="vacuum-schur",
        classification=EXACT,
        nmax_levels=levels,
        residuals={"fixed_point_gap": gaps},
        summary=gaps,
        threshold=THRESHOLDS["schur_fixed_point"],
        passed=passed,
        details={"eps_ladder": list(VACUUM_SCHUR_LADDER), "values": ladder_values,
                 "strictly_decreasing": monotone_ok},
    )


# ---------------------------------------------------------------------------
# lambda transfer formula
# ---------------------------------------------------------------------------


def verify_lambda_identity(workspaces: Dict[int, ReductionWorkspace]) -> IdentityReport:
    """Transfer of the lambda scalars to a one-boson matrix element.

    Checks ``v_k lam(k) = <vac| a_k (1 + a(v) + D) Y(0) |v>`` mode by
    mode, with D acting as the one-particle kernel embedded in the
    1-boson sector.  Truncation-limited: the derivation pulls ladder
    operators through resolvents.
    """
    levels = sorted(workspaces)
    res: List[Optional[float]] = []
    for nmax in levels:
        ws = workspaces[nmax]
        dmat = ws.build_bundle().dmat
        u = ws.y_on_v(np.zeros(ws.grid.d))
        u1 = ws.sector1_components(u)
        av_u = ws.raising_part.T.tocsr() @ u
        av_u1 = ws.sector1_components(av_u)
        rhs = u1 + av_u1 + dmat @ u1
        lhs = ws.ff.values * np.array([ws.lambda_direct(k) for k in ws.grid.modes])
        res.append(float(np.max(np.abs(lhs - rhs))))
    trend = _strictly_decreasing(res)
    return IdentityReport(
        identity="lambda-oneboson",
        classification=TRUNCATION_LIMITED,
        nmax_levels=levels,
        residuals={"mode_max": res},
        summary=res,
        threshold=None,
        passed=(trend is not False),
        details={"strictly_decreasing": trend},
    )


# ---------------------------------------------------------------------------
# c0 identities
# ---------------------------------------------------------------------------


def verify_c0_identity(workspaces: Dict[int, ReductionWorkspace]) -> IdentityReport:
    """Three equivalent expressions for ``c0`` plus the ground-state relation.

    (one-boson)   c0 = -e0/(1+e0) - <v|Y(0) (1 + a^+(v) + D) P1 Y(0)|v>
    (two-boson)   c0 = 1/(1+e0) - 1 - <v|Y(0) (1 + X) Y(0)|v>
    (ground)      Z(0) (vac - Y(0)|v>) = vac - Y(0)|v>, and that vector is
                  the ground state of the fiber Hamiltonian.

    All three are exact consequences of the splitting identities, so they
    must agree with the kernel value of ``c0`` to solver tolerance.
    """
    levels = sorted(workspaces)
    res_one: List[Optional[float]] = []
    res_two: List[Optional[float]] = []
    res_ground: List[Optional[float]] = []
    res_state: List[Optional[float]] = []
    for nmax in levels:
        ws = workspaces[nmax]
        b = ws.build_bundle()
        u = ws.y_on_v(np.zeros(ws.grid.d))
        u_sec1 = ws.project_sector(u, 1)
        u1 = ws.sector1_components(u)
        raising = ws.raising_part
        inner = float(u @ u_sec1) + float(u @ (raising @ u_sec1)) + float(u1 @ (b.dmat @ u1))
        c0_one = -ws.e0 / (1.0 + ws.e0) - inner
        xg = ws.apply_x(u)
        c0_two = 1.0 / (1.0 + ws.e0) - 1.0 - (float(u @ u) + float(u @ xg))
        res_one.append(abs(b.c0 - c0_one))
        res_two.append(abs(b.c0 - c0_two))

        w0 = ws.vacuum_vector() - u
        res_ground.append(float(np.linalg.norm(ws.apply_z(np.zeros(ws.grid.d), w0) - w0)))
        cand = w0 / np.linalg.norm(w0)
        sign = 1.0 if float(cand @ ws.ground_vector) >= 0 else -1.0
        res_state.append(float(np.linalg.norm(cand - sign * ws.ground_vector)))
    worst = [max(a, b, c, d) for a, b, c, d in zip(res_one, res_two, res_ground, res_state)]
    return IdentityReport(
        identity="c0-identity",
        classification=EXACT,
        nmax_levels=levels,
        residuals={
            "one_boson_form": res_one,
            "two_boson_form": res_two,
            "ground_state_relation": res_ground,
            "ground_state_vector": res_state,
        },
        summary=worst,
        threshold=THRESHOLDS["exact"],
        passed=all(v <= THRESHOLDS["exact"] for v in worst),
    )


# ---------------------------------------------------------------------------
# kernel rearrangement
# ---------------------------------------------------------------------------


def verify_rearrangement(workspaces: Dict[int, ReductionWorkspace]) -> IdentityReport:
    """Rank-one rearrangement of the weighted one-particle kernel.

    Assembles ``|k|^{-1} (k^2 - e0 - D) |l|^{-1}`` from the raw kernel
    ``C`` and compares against ``(1 + A)`` plus the three displayed
    rank-one corrections built from ``c0``, ``psi``, ``phi``.  Exact by
    construction of the decomposition, at every truncation level.
    """
    levels = sorted(workspaces)
    res: List[Optional[float]] = []
    sym: List[Optional[float]] = []
    skipped = []
    for nmax in levels:
        b = workspaces[nmax].build_bundle()
        if not b.c0_positive:
            res.append(None)
            sym.append(None)
            skipped.append(nmax)
            continue
        norms = b.mode_norms
        v = b.v
        dmat_from_c = -np.diag(b.e_k) + np.outer(v, v) * (1.0 / (1.0 + b.e0) - b.cmat)
        ksq = norms**2
        lhs = (np.diag(ksq - b.e0) - dmat_from_c) / np.outer(norms, norms)
        vw = v / norms
        rank_vv = (1.0 / (1.0 + b.e0) - b.c0) * np.outer(vw, vw)
        cross = np.sqrt(b.c0) * np.outer(vw, b.phi)
        rhs = np.eye(len(norms)) + b.amat - rank_vv + cross + cross.T
        res.append(float(np.max(np.abs(lhs - rhs))))
        sym.append(float(np.max(np.abs(lhs - lhs.T))))
    vals = [v for v in res if v is not None]
    passed = all(v <= THRESHOLDS["exact"] for v in vals) if vals else None
    notes = ""
    if skipped:
        notes = f"decomposition absent (c0 <= 0) at levels {skipped}; skipped there"
    return IdentityReport(
        identity="rearrangement",
        classification=EXACT,
        nmax_levels=levels,
        residuals={"entry_max": res, "symmetry": sym},
        summary=res,
        threshold=THRESHOLDS["exact"],
        passed=passed,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# norm identity
# ---------------------------------------------------------------------------


def norm_identity_value(bundle: ReductionBundle) -> Optional[float]:
    """The central pairing ``<phi| (1+A)^{-1} |phi>`` (None when absent)."""
    if bundle.phi is None:
        return None
    one_a = np.eye(len(bundle.phi)) + bundle.amat
    if sla.eigvalsh(one_a)[0] <= 0.0:
        return None
    return float(bundle.phi @ sla.solve(one_a, bundle.phi, assume_a="sym"))


def verify_norm_identity(workspaces: Dict[int, ReductionWorkspace]) -> IdentityReport:
    """The central norm identity and the two construction formulas under it.

    (pairing)  <phi| (1+A)^{-1} |phi> = 1
    (vector)   sqrt(c0) phi = (1 + A) |P| Y(0)|v> / (1 + e0), on the 1-boson sector
    (scalar)   sqrt(c0) <phi| |P| Y(0)|v> = (1 + e0) c0
    (null)     S (1+A)^{-1} phi = 0

    Truncation-limited through the lambda transfer step; the pairing
    residual must shrink along the truncation ladder and stay within
    ``THRESHOLDS["norm_identity"]`` at the top level.  At zero coupling the
    decomposition is absent and the check reports that instead of failing.
    """
    levels = sorted(workspaces)
    res_pair: List[Optional[float]] = []
    res_vec: List[Optional[float]] = []
    res_scal: List[Optional[float]] = []
    res_null: List[Optional[float]] = []
    res_paths: List[Optional[float]] = []
    phi_norms: List[Optional[float]] = []
    absent = []
    for nmax in levels:
        ws = workspaces[nmax]
        b = ws.build_bundle()
        if b.phi is None:
            absent.append(nmax)
            for lst in (res_pair, res_vec, res_scal, res_null, res_paths, phi_norms):
                lst.append(None)
            continue
        val = norm_identity_value(b)
        res_pair.append(None if val is None else abs(val - 1.0))
        u1 = ws.sector1_components(ws.y_on_v(np.zeros(ws.grid.d)))
        w = b.mode_norms * u1
        one_a = np.eye(len(w)) + b.amat
        res_vec.append(
            float(np.linalg.norm(np.sqrt(b.c0) * b.phi - one_a @ w / (1.0 + b.e0)))
        )
        res_scal.append(abs(np.sqrt(b.c0) * float(b.phi @ w) - (1.0 + b.e0) * b.c0))
        x = sla.solve(one_a, b.phi, assume_a="sym")
        res_null.append(float(np.linalg.norm(b.smat @ x)))
        lam0_d = ws.lambda_direct(np.zeros(ws.grid.d))
        lam_d = np.array([ws.lambda_direct(k) for k in ws.grid.modes])
        alt = b.v / b.mode_norms * (lam0_d - lam_d)
        res_paths.append(float(np.max(np.abs(np.sqrt(b.c0) * b.phi - alt))))
        phi_norms.append(float(np.linalg.norm(b.phi)))

    trend = _strictly_decreasing(res_pair)
    top = res_pair[-1] if res_pair else None
    if all(v is None for v in res_pair):
        passed = None
        notes = f"decomposition absent (c0 <= 0) at levels {absent}; nothing to verify"
    else:
        passed = (top is not None and top <= THRESHOLDS["norm_identity"]) and (trend is not False)
        notes = "pairing residual is the primary truncation ladder"
        if absent:
            notes += f"; absent at levels {absent}"
    return IdentityReport(
        identity="norm-identity",
        classification=TRUNCATION_LIMITED,
        nmax_levels=levels,
        residuals={
            "pairing": res_pair,
            "vector_construction": res_vec,
            "scalar_pairing": res_scal,
            "null_vector": res_null,
            "construction_paths": res_paths,
        },
        summary=res_pair,
        threshold=THRESHOLDS["norm_identity"],
        passed=passed,
        details={
            "phi_norms": phi_norms,
            "strictly_decreasing": trend,
        },
        notes=notes,
    )


# ---------------------------------------------------------------------------
# energy-curve derivative and expansion checks
# ---------------------------------------------------------------------------


def _default_probe_momenta(ws: ReductionWorkspace) -> List[np.ndarray]:
    h = ws.grid.h
    p1 = np.zeros(ws.grid.d)
    p1[0] = 0.3 * h
    p2 = np.zeros(ws.grid.d)
    p2[0] = 0.7 * h
    if ws.grid.d > 1:
        p2[1] = 0.4 * h
    return [p1, p2]


def _gradient_analytic(ws: ReductionWorkspace, k: np.ndarray) -> np.ndarray:
    y = ws.y_on_v(k)
    grad = np.empty(ws.grid.d)
    for i in range(ws.grid.d):
        mult = ws.p_state[:, i] + k[i] - ws.xi[i]
        grad[i] = 2.0 * float(y @ (mult * y))
    return grad


def _hessian_analytic(ws: ReductionWorkspace, k: np.ndarray) -> np.ndarray:
    y = ws.y_on_v(k)
    hess = np.empty((ws.grid.d, ws.grid.d))
    mults = [ws.p_state[:, i] + k[i] - ws.xi[i] for i in range(ws.grid.d)]
    zs = [ws.apply_y(k, mults[j] * y) for j in range(ws.grid.d)]
    for i in range(ws.grid.d):
        for j in range(ws.grid.d):
            # product rule hits both resolvent factors around each momentum
            # insertion, hence the coefficient 8 on the cross term
            hess[i, j] = -8.0 * float((mults[i] * y) @ zs[j])
            if i == j:
                hess[i, j] += 2.0 * float(y @ y)
    return hess


def _weighted_resolvent_norm(ws: ReductionWorkspace, k: np.ndarray) -> Tuple[float, float]:
    """Norm of ``W Y(k) W`` on the >=1 tail, ``W = 1 + |P + k - xi|``.

    Lanczos (ARPACK, largest algebraic, from the workspace's fixed start
    vector) returns the top Ritz pair ``(theta, u)`` of this positive
    definite operator.  ``theta`` is a Rayleigh quotient, so it never
    exceeds the norm, and some eigenvalue lies within ``|W Y W u - theta u|``
    of it: when that is the top one, ``theta + |r|`` bounds the norm from
    above.  Returns ``(theta, theta + |r|)``.
    """
    start = ws.start1
    weight = 1.0 + np.sqrt(ws.kinetic_diagonal(k, start))

    def matvec(x: np.ndarray) -> np.ndarray:
        full = np.zeros(ws.basis.dim)
        full[start:] = weight * np.ravel(x)
        return weight * ws.apply_y(k, full)[start:]

    tail = ws.basis.dim - start
    op = spla.LinearOperator((tail, tail), matvec=matvec, dtype=float)
    try:
        vals, vecs = spla.eigsh(
            op,
            k=1,
            which="LA",
            v0=start_vector(ws.basis.dim, ws.config.seed)[start:],
            tol=0.0,
            maxiter=MAX_ITERATIONS,
        )
    except spla.ArpackNoConvergence as exc:
        raise SolverError(f"Lanczos on the weighted resolvent failed to converge: {exc}") from exc
    theta, u = float(vals[0]), vecs[:, 0]
    return theta, theta + float(np.linalg.norm(matvec(u) - theta * u))


def verify_energy_derivatives(ws: ReductionWorkspace) -> IdentityReport:
    """Resolvent-calculus derivatives of the mode energy curve.

    gradient:   dE/dk_i = 2 <v| Y(k) (P_i + k_i) Y(k) |v>
    hessian:    d2E/dk_i dk_j = 2 delta_ij <v|Y^2|v> - 8 <v|Y (P_i+k_i) Y (P_j+k_j) Y|v>

    Both are exact matrix calculus at fixed ``e0``; the reference values
    come from central finite differences, so the report is oracle-limited
    rather than exact.  Also records the quadratic-smallness ratio
    ``|E(k) - e0| / (g^2 k^2)``, the leading small-coupling value of
    ``c0``, and the momentum-weighted resolvent norms of
    ``_weighted_resolvent_norm`` at ``k = 0`` and two sampled modes.

    ``hessian_rel`` is written, and gated, rounded to 6 decimal places.
    The energies behind its second difference carry solve rounding up to
    ``LIN_TOL = 1e-12`` relative, and the difference divides by
    ``HESSIAN_STEP**2 = 1e-6``, so no digit below ``1e-6`` is resolved:
    dense, factor and PCG solves move it in the eighth.
    """
    probes = _default_probe_momenta(ws)
    grad_rel = []
    for k in probes:
        analytic = _gradient_analytic(ws, k)
        fd = np.zeros(ws.grid.d)
        for i in range(ws.grid.d):
            dk = np.zeros(ws.grid.d)
            dk[i] = FD_STEP
            fd[i] = (ws.energy_curve(k + dk) - ws.energy_curve(k - dk)) / (2.0 * FD_STEP)
        # one error per probe vector: a component that vanishes by symmetry
        # carries only rounding noise and must not set the relative scale
        denom = max(float(np.linalg.norm(analytic)), 1e-12)
        grad_rel.append(float(np.linalg.norm(analytic - fd)) / denom)
    grad_rel_max = float(max(grad_rel))

    grad0 = _gradient_analytic(ws, np.zeros(ws.grid.d))
    grad0_norm = float(np.linalg.norm(grad0))

    hess_rel = []
    for k in probes[:1]:
        analytic = _hessian_analytic(ws, k)
        for i in range(ws.grid.d):
            dk = np.zeros(ws.grid.d)
            dk[i] = HESSIAN_STEP
            fd = (
                ws.energy_curve(k + dk) - 2.0 * ws.energy_curve(k) + ws.energy_curve(k - dk)
            ) / HESSIAN_STEP**2
            denom = max(abs(analytic[i, i]), 1e-12)
            hess_rel.append(abs(analytic[i, i] - fd) / denom)
    hess_rel_max = round(float(max(hess_rel)), 6)

    g = ws.ff.g
    quad_ratio = None
    if g > 0:
        ratios = []
        for k in probes:
            ksq = float(k @ k)
            ratios.append(abs(ws.energy_curve(k) - ws.e0) / (g * g * ksq))
        quad_ratio = float(max(ratios))

    c0_gap_ratio = None
    c0_leading = None
    if g > 0:
        ksq = np.sum(ws.grid.modes**2, axis=1)
        c0_leading = float(np.sum(ws.ff.values**2 * ksq / (ksq + 1.0 - ws.e0) ** 2))
        c0_gap_ratio = abs(ws.build_bundle().c0 - c0_leading) / g**4

    norms, bounds = {}, {}
    sample = [np.zeros(ws.grid.d)] + [ws.grid.modes[j] for j in _mode_sample(ws, 2)]
    for k in sample:
        key = str(np.round(k, 6).tolist())
        norms[key], bounds[key] = _weighted_resolvent_norm(ws, k)
    weighted_norm_max = float(max(norms.values()))

    passed = bool(
        grad_rel_max <= THRESHOLDS["gradient_rel"]
        and grad0_norm <= THRESHOLDS["gradient_origin"]
        and hess_rel_max <= THRESHOLDS["hessian_rel"]
        and np.isfinite(weighted_norm_max)
    )
    return IdentityReport(
        identity="energy-derivatives",
        classification=ORACLE_LIMITED,
        nmax_levels=[ws.basis.nmax],
        residuals={
            "gradient_rel": [grad_rel_max],
            "gradient_at_origin": [grad0_norm],
            "hessian_rel": [hess_rel_max],
        },
        summary=[grad_rel_max],
        threshold=THRESHOLDS["gradient_rel"],
        passed=passed,
        details={
            "quadratic_ratio": quad_ratio,
            "c0_leading_order": c0_leading,
            "c0_gap_over_g4": c0_gap_ratio,
            "weighted_resolvent_norms": norms,
            "weighted_resolvent_norm_bounds": bounds,
            "weighted_resolvent_norm_max": weighted_norm_max,
        },
    )


# ---------------------------------------------------------------------------
# spectral correspondence between the fiber operator and the reduced kernel
# ---------------------------------------------------------------------------


def _below_count(eps: float, vals: np.ndarray, pole: float) -> int:
    """Eigenvalues of the fiber operator below ``e0 + 1 - eps`` as read off
    the reduced kernel: the negative inertia of ``O(eps)`` (eigenvalues
    ``vals``) plus the vacuum block, which counts below its pole."""
    return int(np.sum(vals < 0.0)) + int(eps < pole)


def _bracket_crossings(
    evaluate: Callable[[float], np.ndarray], pole: float, offsets: Sequence[float]
) -> List[dict]:
    """Check each fiber offset against the inertia counts of ``O(eps)``.

    ``evaluate(eps)`` returns the eigenvalues of ``O(eps)``, ``pole`` is the
    offset where its vacuum block changes sign, and ``offsets`` are the
    fiber eigenvalues' ``eps* = e0 + 1 - E``.  Offsets closer than
    ``2 * BRACKET_DELTA`` form one group (copies of a degenerate
    eigenvalue); a group gets the bracket ``[min - BRACKET_DELTA, max +
    BRACKET_DELTA]`` and is matched when ``_below_count`` drops across it by
    the group's size.  Each bracket takes two kernel points and logs one
    DEBUG event with its ends and its drop.
    """
    groups: List[List[float]] = []
    for eps in sorted(offsets):
        if groups and eps - groups[-1][-1] < 2.0 * BRACKET_DELTA:
            groups[-1].append(eps)
        else:
            groups.append([eps])
    crossings = []
    for group in groups:
        lo, hi = group[0] - BRACKET_DELTA, group[-1] + BRACKET_DELTA
        drop = _below_count(lo, evaluate(lo), pole) - _below_count(hi, evaluate(hi), pole)
        _log.debug("crossing bracket eps in [%r, %r]: kernel count drops by %d", lo, hi, drop)
        crossings.append(
            {
                "eps_lo": lo,
                "eps_hi": hi,
                "fiber_count": len(group),
                "kernel_drop": drop,
                "matched": drop == len(group),
            }
        )
    return crossings


def schur_equivalence_report(ws: ReductionWorkspace) -> dict:
    """Bidirectional spectral correspondence through the Schur complement.

    Direction one: every fiber eigenvalue in the window ``(e0, e0+1)``
    must produce a near-zero eigenvalue of the reduced one-particle
    operator at the matching offset.  Direction two: on ``EPSILON_GRID``,
    the negative-inertia count of the reduced operator (plus the vacuum
    block) must equal the number of fiber eigenvalues below the matching
    energy, and every fiber offset inside the grid's span must sit in a
    bracket (``_bracket_crossings``) across which that count drops by
    exactly the number of fiber offsets it holds.

    The brackets see every inertia jump of ``O(eps)`` in the span:

    * for ``eps >= 0``, ``dO/deps = I + B^T X(eps)^2 B + v v^T / denom^2
      >= I`` away from the vacuum pole, so every ordered eigenvalue of
      ``O(eps)`` rises and the count can only drop;
    * across the pole the count is continuous: as the vacuum term leaves
      it, one eigenvalue of ``O(eps)`` rises to ``+inf`` and returns from
      ``-inf``, joining the negative inertia;
    * so the count is nonincreasing, the grid rows fix its total drop
      between grid points, and when every bracket drops by exactly its
      fiber count, no jump lies outside a bracket.

    Each ``crossings`` entry holds the bracket ends ``eps_lo`` and
    ``eps_hi``, its ``fiber_count``, the ``kernel_drop`` and ``matched``;
    the ends derive from ``e0`` and the window eigenvalues alone.
    """
    tol = THRESHOLDS["equivalence"]
    # the vacuum block 1 + e0 - eps - |xi|^2 of O(eps) changes sign here
    pole = 1.0 + ws.e0 - ws.vacuum_kinetic()

    def evaluate(eps: float) -> np.ndarray:
        return sla.eigvalsh(ws.one_particle_operator(float(eps)))

    eigs = eigenvalues_below(ws.hamiltonian, ws.symmetry, ws.e0 + 1.0, ws.config)
    window = [float(e) for e in eigs if e > ws.e0 + 1e-12]

    spectrum_to_kernel = []
    for energy in window:
        eps_star = ws.e0 + 1.0 - energy
        min_abs = float(np.min(np.abs(evaluate(eps_star))))
        spectrum_to_kernel.append(
            {
                "energy": energy,
                "eps": eps_star,
                "min_abs_eigenvalue": min_abs,
                "matched": bool(min_abs <= tol),
            }
        )

    grid_vals = [evaluate(e) for e in EPSILON_GRID]
    grid_rows = []
    for e, vals in zip(EPSILON_GRID, grid_vals):
        predicted = _below_count(e, vals, pole)
        actual = int(np.sum(eigs < ws.e0 + 1.0 - e))
        grid_rows.append(
            {
                "eps": float(e),
                "negative_count": int(np.sum(vals < 0.0)),
                "predicted_below": predicted,
                "fiber_below": actual,
                "consistent": bool(predicted == actual),
            }
        )

    lo, hi = EPSILON_GRID[0], EPSILON_GRID[-1]
    crossings = _bracket_crossings(
        evaluate, pole, [p["eps"] for p in spectrum_to_kernel if lo <= p["eps"] <= hi]
    )

    consistent = (
        all(r["consistent"] for r in grid_rows)
        and all(m["matched"] for m in spectrum_to_kernel)
        and all(c["matched"] for c in crossings)
    )
    return {
        "e0": ws.e0,
        "window_upper": ws.e0 + 1.0,
        "window_eigenvalues": window,
        "spectrum_to_kernel": spectrum_to_kernel,
        "grid": grid_rows,
        "crossings": crossings,
        "tolerance": tol,
        "consistent": bool(consistent),
    }


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------


def run_suite(
    workspaces: Dict[int, ReductionWorkspace], *, only: Optional[Iterable[str]] = None
) -> List[IdentityReport]:
    """Run the identity suite on one instance across a truncation ladder.

    ``workspaces`` maps each truncation level to its workspace, which the
    caller builds, so every check shares its resolvent handles and reads
    kernels from the level's own ``build_bundle()``, built on first use.
    The energy-derivative check runs on the top level.  Each check judges
    against ``THRESHOLDS``.  ``only`` filters by identity id; unknown ids,
    and an empty ladder, are configuration errors.
    """
    wanted = set(IDENTITY_IDS) if only is None else set(only)
    unknown = wanted - set(IDENTITY_IDS)
    if unknown:
        raise ConfigError(f"unknown identity ids: {sorted(unknown)}")
    if not workspaces:
        raise ConfigError("need at least one truncation level")

    reports: List[IdentityReport] = []
    if "pullthrough-creator" in wanted:
        reports.append(verify_pullthrough(workspaces, "creator"))
    if "pullthrough-annihilator" in wanted:
        reports.append(verify_pullthrough(workspaces, "annihilator"))
    if {"resolvent-splitting-vacuum", "resolvent-splitting-one-boson"} & wanted:
        r1, r2 = verify_resolvent_identities(workspaces)
        if "resolvent-splitting-vacuum" in wanted:
            reports.append(r1)
        if "resolvent-splitting-one-boson" in wanted:
            reports.append(r2)
    if "vacuum-schur" in wanted:
        reports.append(verify_vacuum_schur(workspaces))
    if "lambda-oneboson" in wanted:
        reports.append(verify_lambda_identity(workspaces))
    if "c0-identity" in wanted:
        reports.append(verify_c0_identity(workspaces))
    if "rearrangement" in wanted:
        reports.append(verify_rearrangement(workspaces))
    if "norm-identity" in wanted:
        reports.append(verify_norm_identity(workspaces))
    if "energy-derivatives" in wanted:
        reports.append(verify_energy_derivatives(workspaces[max(workspaces)]))
    return reports
