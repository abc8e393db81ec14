"""Command-line front end.

Subcommands:

* ``build``     assemble and persist the operators of one instance
* ``spectrum``  low-lying eigenvalues and sector gaps per truncation level
* ``verify``    run the identity suite and the spectral-correspondence checks
* ``scan``      sweep the coupling and tabulate spectra, kernels, assumptions
* ``report``    re-hash a finished run directory and summarize it

At module level this file imports only the standard library, ``errors``
and ``storage``; each command imports the layers it runs in its own body.
So ``report`` needs neither numpy nor scipy, ``build`` loads neither the
reduction nor the identity suite, and ``scan`` loads the full stack before
its worker pool forks.  The config defaults are read from the layers that
own them (``grid``, ``fock``, ``SolverConfig``) when a config is loaded.

Configuration is a JSON file; unknown keys anywhere in it are fatal.
Environment variables with the ``POLARONLAB_`` prefix override single
entries, with ``__`` separating nesting levels (for example
``POLARONLAB_GRID__H=0.25``).  Values are parsed as JSON when possible
and taken as strings otherwise.

Every artifact is deterministic: reruns with the same configuration
produce byte-identical JSON, CSV, and operator files (no timestamps, no
machine identifiers).  Exit codes: 0 success, 1 identity/equivalence
failure, 2 configuration error, 3 solver failure, 4 artifact corruption.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from . import storage
from .errors import CacheCorruptionError, ConfigError, SolverError

if TYPE_CHECKING:
    from .grid import FormFactor, MomentumGrid
    from .spectral import SolverConfig

_REQUIRED = object()

_ENV_PREFIX = "POLARONLAB_"

#: eigenvalues ``spectrum`` lists per truncation level
SPECTRUM_COUNT = 6


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------


def _merge(defaults, given, path: str):
    """Overlay ``given`` onto ``defaults``, rejecting unknown keys."""
    if isinstance(defaults, dict):
        if not isinstance(given, dict):
            raise ConfigError(f"config entry {path or '<root>'} must be an object")
        unknown = set(given) - set(defaults)
        if unknown:
            where = path or "<root>"
            raise ConfigError(f"unknown config keys at {where}: {sorted(unknown)}")
        merged = {}
        for key, default_value in defaults.items():
            sub = f"{path}.{key}" if path else key
            if key in given:
                if isinstance(default_value, dict):
                    merged[key] = _merge(default_value, given[key], sub)
                else:
                    merged[key] = given[key]
            else:
                merged[key] = (
                    _merge(default_value, {}, sub)
                    if isinstance(default_value, dict)
                    else default_value
                )
        return merged
    return given


def _apply_env(config: dict, environ) -> dict:
    for name in sorted(environ):
        if not name.startswith(_ENV_PREFIX):
            continue
        parts = [p.lower() for p in name[len(_ENV_PREFIX) :].split("__") if p]
        if not parts:
            raise ConfigError(f"malformed override variable {name}")
        node, key, value = None, None, config
        for part in parts:
            # keys match whatever their case (``grid.K``); no two config
            # keys differ only by case
            match = [k for k in value if k.lower() == part] if isinstance(value, dict) else []
            if not match:
                raise ConfigError(f"override {name} names an unknown config entry")
            node, key = value, match[0]
            value = node[key]
        if isinstance(value, dict):
            raise ConfigError(f"override {name} targets a config section, not an entry")
        raw = environ[name]
        try:
            node[key] = json.loads(raw)
        except json.JSONDecodeError:
            node[key] = raw
    return config


def _check_required(config, path: str = "") -> None:
    if isinstance(config, dict):
        for key, value in config.items():
            sub = f"{path}.{key}" if path else key
            if value is _REQUIRED:
                raise ConfigError(f"missing required config entry: {sub}")
            _check_required(value, sub)


def _default_config() -> dict:
    """Every config entry with its default; ``_REQUIRED`` marks the ones a
    config must give.  The layers that read an entry own its default."""
    from .fock import DEFAULT_FOCK_CAP
    from .grid import DEFAULT_MODE_CAP
    from .spectral import SolverConfig

    return {
        "grid": {
            "d": _REQUIRED,
            "K": _REQUIRED,
            "h": _REQUIRED,
            "mode_cap": DEFAULT_MODE_CAP,
        },
        "form_factor": {
            "profile": _REQUIRED,
            "g": 0.1,
            "alpha": 1.0,
        },
        "nmax": [2, 3, 4],
        "xi": None,
        "solver": {f.name: f.default for f in fields(SolverConfig)},
        "scan": {
            "couplings": [0.0, 0.05, 0.1, 0.2],
        },
        "fock_cap": DEFAULT_FOCK_CAP,
    }


def load_config(path: Optional[str], environ=None) -> dict:
    """Load, default-fill, override, and validate a run configuration."""
    given = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                given = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    config = _merge(_default_config(), given, "")
    config = _apply_env(config, os.environ if environ is None else environ)
    _check_required(config)
    _validate_values(config)
    return config


def _number(value, entry: str, kind: type = float):
    """``kind(value)``, or a ``ConfigError`` naming ``entry`` if it does not
    cast or casts to a NaN or an infinity.  A boolean is no number here,
    although Python casts it to one, and an ``int`` entry takes only a JSON
    integer: ``int`` would truncate ``7.9`` to 7."""
    want = "a number (an integer)" if kind is int else "a number"
    if isinstance(value, bool) or (kind is int and not isinstance(value, int)):
        raise ConfigError(f"{entry} must be {want}, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{entry} must be {want}, got {value!r}") from exc
    if kind is float and not math.isfinite(number):
        raise ConfigError(f"{entry} must be {want}, got {value!r}, which is not finite")
    return number


def _validate_values(cfg: dict) -> None:
    from .spectral import SolverConfig

    g = cfg["grid"]
    f = cfg["form_factor"]
    # every entry the commands cast to a number must cast
    numbers = [
        ("grid.d", g["d"], int),
        ("grid.K", g["K"], float),
        ("grid.h", g["h"], float),
        ("grid.mode_cap", g["mode_cap"], int),
        ("form_factor.g", f["g"], float),
        ("form_factor.alpha", f["alpha"], float),
        ("fock_cap", cfg["fock_cap"], int),
    ]
    numbers += [
        (f"solver.{s.name}", cfg["solver"][s.name], type(s.default)) for s in fields(SolverConfig)
    ]
    for entry, value, kind in numbers:
        _number(value, entry, kind)
    if g["d"] < 1:
        raise ConfigError(f"grid.d must be a positive integer, got {g['d']!r}")
    if not 0 <= cfg["solver"]["seed"] < 2**32:
        raise ConfigError(f"solver.seed must lie in [0, 2**32), got {cfg['solver']['seed']!r}")
    nmax = cfg["nmax"]
    levels = nmax if isinstance(nmax, list) else [nmax]
    if not levels:
        raise ConfigError("nmax must be an integer or a non-empty list of integers")
    for n in levels:
        _number(n, "nmax", int)
    cfg["nmax"] = sorted(set(levels))
    if any(n < 1 for n in cfg["nmax"]):
        raise ConfigError("truncation levels must be >= 1")
    if cfg["xi"] is not None:
        xi = cfg["xi"]
        if not isinstance(xi, list) or len(xi) != g["d"]:
            raise ConfigError(f"xi must be a list of {g['d']} numbers")
        for x in xi:
            _number(x, "xi")
    couplings = cfg["scan"]["couplings"]
    if not isinstance(couplings, list) or not couplings:
        raise ConfigError("scan.couplings must be a non-empty list")
    if any(_number(c, "scan.couplings") < 0 for c in couplings):
        raise ConfigError("scan.couplings must be non-negative")


def solver_from_config(cfg: dict) -> SolverConfig:
    """The validated ``solver`` entries, which are JSON integers like the
    ``SolverConfig`` defaults."""
    from .spectral import SolverConfig

    return SolverConfig(**cfg["solver"])


def instance_from_config(cfg: dict) -> Tuple[MomentumGrid, FormFactor]:
    from .grid import build_grid, sample_form_factor

    g = cfg["grid"]
    f = cfg["form_factor"]
    grid = build_grid(g["d"], float(g["K"]), float(g["h"]), mode_cap=int(g["mode_cap"]))
    ff = sample_form_factor(grid, f["profile"], float(f["g"]), alpha=float(f["alpha"]))
    return grid, ff


# ---------------------------------------------------------------------------
# artifact plumbing
# ---------------------------------------------------------------------------


class RunDirectory:
    """Deterministic artifact sink for one command invocation."""

    def __init__(self, root: str, config: dict, command: str):
        self.root = Path(root)
        self.config = config
        self.command = command
        self.artifacts: Dict[str, str] = {}
        self.root.mkdir(parents=True, exist_ok=True)

    def write_bytes(self, relpath: str, data: bytes) -> None:
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        self.artifacts[relpath] = storage.sha256_bytes(data)

    def write_json(self, relpath: str, payload) -> None:
        text = storage.json_dumps(storage.jsonable(payload)) + "\n"
        self.write_bytes(relpath, text.encode("utf-8"))

    def write_csv(self, relpath: str, header: List[str], rows: List[List[object]]) -> None:
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in storage.jsonable(rows):
            writer.writerow(["" if x is None else (repr(x) if isinstance(x, float) else x) for x in row])
        self.write_bytes(relpath, buf.getvalue().encode("utf-8"))

    def finalize(self) -> None:
        manifest = {
            "command": self.command,
            "config": storage.jsonable(self.config),
            "config_sha256": storage.config_hash(storage.jsonable(self.config)),
            "artifacts": dict(sorted(self.artifacts.items())),
        }
        text = storage.json_dumps(manifest) + "\n"
        (self.root / "manifest.json").write_bytes(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _default_out(cfg: dict, command: str) -> str:
    digest = storage.config_hash(storage.jsonable(cfg))[:12]
    return f"run-{command}-{digest}"


def _instance_summary(cfg: dict, grid: MomentumGrid, ff: FormFactor) -> dict:
    return {
        "dimension": grid.d,
        "cutoff": grid.K,
        "spacing": grid.h,
        "mode_count": grid.size,
        "profile": ff.profile,
        "coupling": ff.g,
        "alpha": ff.alpha,
        "coupling_norm": ff.norm,
        "nmax_levels": cfg["nmax"],
    }


def cmd_build(args) -> int:
    import numpy as np

    from . import fock
    from .grid import export_form_factor_csv

    cfg = load_config(args.config)
    grid, ff = instance_from_config(cfg)
    out = RunDirectory(args.out or _default_out(cfg, "build"), cfg, "build")

    out.write_bytes("tables/form_factor.csv", export_form_factor_csv(grid, ff).encode("utf-8"))

    levels = {}
    for nmax in cfg["nmax"]:
        basis = fock.enumerate_basis(grid.size, nmax, cap=int(cfg["fock_cap"]))
        xi = None if cfg["xi"] is None else np.asarray(cfg["xi"], dtype=float)
        ham = fock.assemble_hamiltonian(basis, grid, ff, xi=xi)
        levels[str(nmax)] = {
            "dimension": basis.dim,
            "nonzeros": ham.nnz,
            "sector_dimensions": [
                basis.sector_range(n).stop - basis.sector_range(n).start
                for n in range(nmax + 1)
            ],
        }
        data, sidecar = storage.operator_payload(
            ham, meta={"kind": "fiber_hamiltonian", "nmax": nmax}
        )
        out.write_bytes(f"matrices/hamiltonian_n{nmax}.bin", data)
        out.write_json(f"matrices/hamiltonian_n{nmax}.json", sidecar)

    out.write_json(
        "results/build.json",
        {"instance": _instance_summary(cfg, grid, ff), "levels": levels},
    )
    out.finalize()
    print(f"built {len(cfg['nmax'])} truncation levels in {out.root}")
    return 0


def cmd_spectrum(args) -> int:
    import numpy as np

    from . import fock
    from .grid import stabilizer
    from .spectral import count_below, spectrum_summary

    cfg = load_config(args.config)
    grid, ff = instance_from_config(cfg)
    solver = solver_from_config(cfg)
    out = RunDirectory(args.out or _default_out(cfg, "spectrum"), cfg, "spectrum")

    rows = []
    payload = {"instance": _instance_summary(cfg, grid, ff), "levels": {}}
    xi = None if cfg["xi"] is None else np.asarray(cfg["xi"], dtype=float)
    mode_perms = stabilizer(grid, ff, xi)
    for nmax in cfg["nmax"]:
        basis = fock.enumerate_basis(grid.size, nmax, cap=int(cfg["fock_cap"]))
        ham = fock.assemble_hamiltonian(basis, grid, ff, xi=xi).matrix
        sector = fock.invariant_sector(np.array([basis.permute_modes(p) for p in mode_perms]))
        level = spectrum_summary(ham, basis, sector, SPECTRUM_COUNT, solver)
        e0 = float(level["eigenvalues"][0])
        n_below = count_below(ham, e0 + 1.0, solver.buffer(grid.h), solver)
        level["dimension"] = basis.dim
        level["count_below_window"] = n_below
        payload["levels"][str(nmax)] = level
        rows.append(
            [nmax, basis.dim, e0, level["nu1"], level["nu2"], level["vacuum_overlap"], n_below]
        )
        out.write_json(f"results/spectrum_n{nmax}.json", level)

    out.write_json("results/spectrum.json", payload)
    out.write_csv(
        "tables/spectrum.csv",
        ["nmax", "dimension", "e0", "nu1", "nu2", "vacuum_overlap", "count_below_window"],
        rows,
    )
    out.finalize()
    top = payload["levels"][str(cfg["nmax"][-1])]
    print(
        f"spectrum over levels {cfg['nmax']}: top-level e0={top['eigenvalues'][0]:.12f} "
        f"nu1={top['nu1']:.6f} nu2={top['nu2']:.6f}"
    )
    return 0


def _reduction_levels(cfg: dict) -> List[int]:
    """The truncation levels the reduction can use (``nmax >= 2``), ascending."""
    levels = [n for n in cfg["nmax"] if n >= 2]
    if not levels:
        raise ConfigError("verification needs at least one truncation level >= 2")
    return levels


def _shifted(cfg: dict) -> bool:
    """Whether the configured fiber shift ``xi`` is nonzero."""
    return cfg["xi"] is not None and any(float(x) != 0.0 for x in cfg["xi"])


def _verify_payload(cfg: dict, only: Optional[List[str]]) -> dict:
    from .identities import run_suite, schur_equivalence_report
    from .reduction import build_workspace

    grid, ff = instance_from_config(cfg)
    solver = solver_from_config(cfg)
    levels = _reduction_levels(cfg)
    xi = cfg["xi"]
    workspaces = {
        n: build_workspace(grid, ff, n, config=solver, xi=xi, fock_cap=int(cfg["fock_cap"]))
        for n in levels
    }
    top = levels[-1]
    # the bundle's weighted decomposition exists only at zero fiber shift
    reports, bs, assumptions = [], None, None
    if not _shifted(cfg):
        bundles = {n: workspaces[n].build_bundle() for n in levels}
        reports = run_suite(workspaces, bundles, only=only)
        bs = bundles[top].bs_limit_check()
        assumptions = bundles[top].assumptions()
    equivalence = schur_equivalence_report(workspaces[top])

    identity_failed = any(r.passed is False for r in reports)
    passed = not identity_failed and equivalence["consistent"]
    return {
        "instance": _instance_summary(cfg, grid, ff),
        "identities": [asdict(r) for r in reports],
        "equivalence": equivalence,
        "bs_limit": bs,
        "assumptions": assumptions,
        "passed": bool(passed),
    }


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    only = None
    if args.filter:
        only = [tok.strip() for tok in args.filter.split(",") if tok.strip()]
    payload = _verify_payload(cfg, only)
    out = RunDirectory(args.out or _default_out(cfg, "verify"), cfg, "verify")
    out.write_json("results/verification.json", payload)

    rows = []
    for rep in payload["identities"]:
        for i, nmax in enumerate(rep["nmax_levels"]):
            rows.append(
                [
                    rep["identity"],
                    rep["classification"],
                    nmax,
                    rep["summary"][i],
                    rep["threshold"],
                    rep["passed"],
                ]
            )
    out.write_csv(
        "tables/identities.csv",
        ["identity", "classification", "nmax", "residual", "threshold", "passed"],
        rows,
    )
    out.finalize()

    for rep in payload["identities"]:
        values = ", ".join(
            "n/a" if v is None else f"{v:.3e}" for v in rep["summary"]
        )
        state = {True: "ok", False: "FAIL", None: "n/a"}[rep["passed"]]
        print(f"[{state:>4}] {rep['identity']:<32} {rep['classification']:<20} {values}")
    print(f"[{'ok' if payload['equivalence']['consistent'] else 'FAIL':>4}] spectral-correspondence")
    if payload["passed"]:
        print("verification passed")
        return 0
    print("verification FAILED")
    return 1


def _scan_row(cfg: dict, coupling: float) -> dict:
    import numpy as np

    from .grid import sample_form_factor
    from .identities import EPSILON_GRID, norm_identity_value
    from .reduction import build_workspace
    from .spectral import count_below

    grid, _ = instance_from_config(cfg)
    solver = solver_from_config(cfg)
    ff = sample_form_factor(
        grid, cfg["form_factor"]["profile"], float(coupling), alpha=float(cfg["form_factor"]["alpha"])
    )
    top = _reduction_levels(cfg)[-1]
    ws = build_workspace(grid, ff, top, config=solver, fock_cap=int(cfg["fock_cap"]))
    bundle = ws.build_bundle()
    assumptions = bundle.assumptions()
    buffer = solver.buffer(grid.h)
    n_below = count_below(ws.hamiltonian, ws.e0 + 1.0, buffer, solver)
    o_min = min(
        float(np.linalg.eigvalsh(ws.one_particle_operator(e))[0]) for e in EPSILON_GRID
    )
    norm_residual = norm_identity_value(bundle)
    return {
        "coupling": float(coupling),
        "nmax": top,
        "dimension": ws.basis.dim,
        "e0": ws.e0,
        "nu1": bundle.nu1,
        "nu2": bundle.nu2,
        "count_below_window": n_below,
        "c0": bundle.c0,
        "a_norm": assumptions["a_norm"],
        "phi_norm": bundle.phi_norm,
        "norm_identity_gap": None if norm_residual is None else abs(norm_residual - 1.0),
        "o_min_eigenvalue": o_min,
        "assumptions": assumptions,
    }


def _scan_jobs(jobs: int, couplings: int) -> int:
    """Worker count: the requested jobs, but no more than couplings or cores."""
    return max(1, min(jobs, couplings, os.cpu_count() or 1))


def cmd_scan(args) -> int:
    cfg = load_config(args.config)
    # configuration errors, raised before any worker starts
    _reduction_levels(cfg)
    if _shifted(cfg):
        raise ConfigError(
            "scan builds reduction bundles, which need a zero fiber shift; "
            f"xi must be zero or absent, got {cfg['xi']!r}"
        )
    couplings = [float(c) for c in cfg["scan"]["couplings"]]
    jobs = _scan_jobs(args.jobs, len(couplings))
    # the layers _scan_row runs, loaded before the pool forks, so that its
    # workers inherit them instead of importing numpy and scipy each
    from . import identities  # noqa: F401

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_scan_row, [cfg] * len(couplings), couplings))
    else:
        rows = [_scan_row(cfg, c) for c in couplings]
    rows.sort(key=lambda r: r["coupling"])

    grid, ff = instance_from_config(cfg)
    out = RunDirectory(args.out or _default_out(cfg, "scan"), cfg, "scan")
    out.write_json(
        "results/scan.json",
        {"instance": _instance_summary(cfg, grid, ff), "rows": rows},
    )
    columns = [
        "coupling", "e0", "nu1", "nu2", "count_below_window", "c0", "a_norm", "phi_norm",
        "norm_identity_gap", "o_min_eigenvalue",
    ]
    out.write_csv(
        "tables/scan.csv",
        columns + ["assumptions_hold"],
        [[r[c] for c in columns] + [r["assumptions"]["all_hold"]] for r in rows],
    )
    out.finalize()
    for r in rows:
        print(
            f"g={r['coupling']:<6} e0={r['e0']:+.9f} nu2={r['nu2']:.6f} "
            f"count={r['count_below_window']} assumptions={'ok' if r['assumptions']['all_hold'] else 'violated'}"
        )
    return 0


def cmd_report(args) -> int:
    root = Path(args.out)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest found under {root}")
    manifest = storage.read_json(manifest_path)
    artifacts = manifest.get("artifacts", {}) if isinstance(manifest, dict) else None
    if not isinstance(artifacts, dict):
        raise CacheCorruptionError(f"{manifest_path} is not a run manifest")
    mismatched = []
    for relpath, digest in artifacts.items():
        rel = Path(relpath)
        # an entry names a file under the run directory, never one outside
        if rel.is_absolute() or ".." in rel.parts:
            mismatched.append((relpath, "outside the run directory"))
            continue
        target = root / rel
        if not target.exists():
            mismatched.append((relpath, "missing"))
            continue
        if not target.is_file():
            mismatched.append((relpath, "not a file"))
            continue
        actual = storage.sha256_bytes(target.read_bytes())
        if actual != digest:
            mismatched.append((relpath, "hash mismatch"))
    if mismatched:
        for relpath, why in mismatched:
            print(f"corrupt artifact: {relpath} ({why})", file=sys.stderr)
        raise CacheCorruptionError(f"{len(mismatched)} artifacts failed re-hashing under {root}")

    digest = manifest.get("config_sha256", "")
    if not isinstance(digest, str):
        raise CacheCorruptionError(f"{manifest_path} has no config hash string")
    print(f"run directory {root} is intact ({len(artifacts)} artifacts)")
    print(f"command: {manifest.get('command')}  config hash: {digest[:12]}")
    verification = root / "results" / "verification.json"
    if verification.exists():
        payload = storage.read_json(verification)
        reports = payload.get("identities", []) if isinstance(payload, dict) else None
        if not isinstance(reports, list) or not all(
            isinstance(rep, dict) and "identity" in rep and rep.get("passed") in (True, False, None)
            for rep in reports
        ):
            raise CacheCorruptionError(f"{verification} is not a verification record")
        for rep in reports:
            state = {True: "ok", False: "FAIL", None: "n/a"}[rep.get("passed")]
            print(f"  [{state:>4}] {rep['identity']}")
        print(f"  overall: {'passed' if payload.get('passed') else 'FAILED'}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polaronlab",
        description=(
            "Discretized fiber Hamiltonians with boson-number truncation: "
            "spectra, Schur-complement reductions, and identity verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a JSON run configuration")
        p.add_argument("--out", help="artifact directory (defaults to a config-hash name)")

    p_build = sub.add_parser("build", help="assemble and persist operators")
    common(p_build)
    p_build.set_defaults(func=cmd_build)

    p_spec = sub.add_parser("spectrum", help="low-lying spectra per truncation level")
    common(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    common(p_verify)
    p_verify.add_argument(
        "--filter",
        help="comma-separated identity ids to run (default: all)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="sweep the coupling strength")
    common(p_scan)
    p_scan.add_argument(
        "--jobs", type=int, default=1, help="parallel workers (at most one per coupling and core)"
    )
    p_scan.set_defaults(func=cmd_scan)

    p_report = sub.add_parser("report", help="re-hash and summarize a run directory")
    p_report.add_argument("--out", required=True, help="run directory to check")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CacheCorruptionError as exc:
        print(f"artifact corruption: {exc}", file=sys.stderr)
        return 4
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
