"""Command-line front end.

Subcommands:

* ``build``     assemble and persist the operators of one instance
* ``spectrum``  low-lying eigenvalues and sector gaps per truncation level
* ``verify``    run the identity suite and the spectral-correspondence checks
* ``scan``      sweep the coupling and tabulate spectra, kernels, assumptions
* ``report``    re-hash a finished run directory and summarize it

At module level this file imports only the standard library, ``errors``
and ``storage``; each command imports the layers it runs in its own body.
So ``report`` needs neither numpy nor scipy, ``build`` loads numpy but no
scipy module, nor the reduction or the identity suite, and ``scan`` loads
the full stack before its worker pool forks (``concurrent.futures`` loads
only for a pool).

Configuration is a JSON file; unknown keys anywhere in it are fatal.  The
table ``_entries`` gives each entry's dotted name, kind and default, and
``load_config`` casts every entry to its kind: the commands and the
manifest read ``"K": 1`` as ``1.0``.  A ``POLARONLAB_`` variable overrides
one entry, ``__`` standing for the dot in any case (``POLARONLAB_GRID__H``);
its value is parsed as JSON when possible and taken as a string otherwise.

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
from dataclasses import asdict
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


def _entries() -> Dict[str, Tuple[object, object]]:
    """Every config entry by dotted name, with its kind and its default;
    ``_REQUIRED`` marks an entry a config must give.  A kind is ``int``,
    ``float``, ``str``, or a one-item list for a list of that kind.  The
    layers own the defaults, read from them when a config is loaded; the
    ``solver.seed`` default lives in ``fock``, so loading a config loads no
    solver."""
    from .fock import DEFAULT_FOCK_CAP, DEFAULT_SEED
    from .grid import DEFAULT_MODE_CAP

    return {
        "grid.d": (int, _REQUIRED),
        "grid.K": (float, _REQUIRED),
        "grid.h": (float, _REQUIRED),
        "grid.mode_cap": (int, DEFAULT_MODE_CAP),
        "form_factor.profile": (str, _REQUIRED),
        "form_factor.g": (float, 0.1),
        "form_factor.alpha": (float, 1.0),
        "nmax": ([int], [2, 3, 4]),
        "xi": ([float], None),
        "solver.seed": (int, DEFAULT_SEED),
        "scan.couplings": ([float], [0.0, 0.05, 0.1, 0.2]),
        "fock_cap": (int, DEFAULT_FOCK_CAP),
    }


def _flatten(given, entries) -> dict:
    """The file's values by dotted entry name; an unknown key is fatal."""
    sections = {name.partition(".")[0] for name in entries if "." in name}
    known = entries.keys() | sections
    flat, nodes = {}, [("<root>", given)]
    for where, node in nodes:
        if not isinstance(node, dict):
            raise ConfigError(f"config entry {where} must be an object")
        prefix = "" if where == "<root>" else where + "."
        unknown = sorted(key for key in node if prefix + key not in known)
        if unknown:
            raise ConfigError(f"unknown config keys at {where}: {unknown}")
        for key, value in node.items():
            if prefix + key in sections:
                nodes.append((key, value))
            else:
                flat[prefix + key] = value
    return flat


def load_config(path: Optional[str], environ=None) -> dict:
    """Load a run configuration: the file's entries over the defaults, the
    ``POLARONLAB_`` overrides over both, and each entry cast to its kind.
    Returns the nested config, as the manifest records it."""
    given = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                given = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    entries = _entries()
    values = {name: default for name, (_, default) in entries.items()}
    values.update(_flatten(given, entries))
    environ = os.environ if environ is None else environ
    # variable names match entries whatever their case (``GRID__K``); no two
    # entries differ only by case
    by_variable = {name.upper().replace(".", "__"): name for name in entries}
    for variable in sorted(v for v in environ if v.startswith(_ENV_PREFIX)):
        name = by_variable.get(variable[len(_ENV_PREFIX) :].upper())
        if name is None:
            raise ConfigError(f"override {variable} names an unknown config entry")
        try:
            values[name] = json.loads(environ[variable])
        except json.JSONDecodeError:
            values[name] = environ[variable]
    # a bare level is a one-level ladder
    if not isinstance(values["nmax"], list):
        values["nmax"] = [values["nmax"]]
    typed = {}
    for name, (kind, default) in entries.items():
        value = values[name]
        if value is _REQUIRED:
            raise ConfigError(f"missing required config entry: {name}")
        # an entry that defaults to None (``xi``) may be None
        typed[name] = None if value is None and default is None else _cast(value, name, kind)

    if typed["grid.d"] < 1:
        raise ConfigError(f"grid.d must be a positive integer, got {typed['grid.d']!r}")
    if not 0 <= typed["solver.seed"] < 2**32:
        raise ConfigError(f"solver.seed must lie in [0, 2**32), got {typed['solver.seed']!r}")
    typed["nmax"] = sorted(set(typed["nmax"]))
    if typed["nmax"][0] < 1:
        raise ConfigError("truncation levels must be >= 1")
    if typed["xi"] is not None and len(typed["xi"]) != typed["grid.d"]:
        raise ConfigError(f"xi must be a list of {typed['grid.d']} numbers")
    if min(typed["scan.couplings"]) < 0:
        raise ConfigError("scan.couplings must be non-negative")

    config: dict = {}
    for name, value in typed.items():
        section, _, leaf = name.rpartition(".")
        (config.setdefault(section, {}) if section else config)[leaf] = value
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


def _cast(value, entry: str, kind):
    """``value`` as an entry of ``kind`` (see ``_entries``), or a
    ``ConfigError`` naming ``entry``."""
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{entry} must be a non-empty list, got {value!r}")
        return [_number(item, entry, kind[0]) for item in value]
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{entry} must be a string, got {value!r}")
        return value
    return _number(value, entry, kind)


def solver_from_config(cfg: dict) -> SolverConfig:
    """The ``SolverConfig`` of the loaded ``solver`` entries."""
    from .spectral import SolverConfig

    return SolverConfig(**cfg["solver"])


def instance_from_config(cfg: dict) -> Tuple[MomentumGrid, FormFactor]:
    from .grid import build_grid, sample_form_factor

    g = cfg["grid"]
    f = cfg["form_factor"]
    grid = build_grid(g["d"], g["K"], g["h"], mode_cap=g["mode_cap"])
    ff = sample_form_factor(grid, f["profile"], f["g"], alpha=f["alpha"])
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
    from . import fock

    cfg = load_config(args.config)
    grid, ff = instance_from_config(cfg)
    out = RunDirectory(args.out or _default_out(cfg, "build"), cfg, "build")

    out.write_csv(
        "tables/form_factor.csv",
        [f"k{i}" for i in range(grid.d)] + ["v"],
        [[*k, v] for k, v in zip(grid.modes, ff.values)],
    )

    levels = {}
    for nmax in cfg["nmax"]:
        basis = fock.enumerate_basis(grid.size, nmax, cap=cfg["fock_cap"])
        ham = fock.assemble_hamiltonian(basis, grid, ff, xi=cfg["xi"])
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
    from . import fock
    from .spectral import spectrum_summary

    cfg = load_config(args.config)
    grid, ff = instance_from_config(cfg)
    solver = solver_from_config(cfg)
    out = RunDirectory(args.out or _default_out(cfg, "spectrum"), cfg, "spectrum")

    rows = []
    payload = {"instance": _instance_summary(cfg, grid, ff), "levels": {}}
    for nmax in cfg["nmax"]:
        basis = fock.enumerate_basis(grid.size, nmax, cap=cfg["fock_cap"])
        ham = fock.assemble_hamiltonian(basis, grid, ff, xi=cfg["xi"]).matrix
        symmetry = fock.symmetry(basis, grid, ff, cfg["xi"])
        level = spectrum_summary(ham, symmetry, SPECTRUM_COUNT, solver, solver.buffer(grid.h))
        level["dimension"] = basis.dim
        payload["levels"][str(nmax)] = level
        e0 = float(level["eigenvalues"][0])
        rows.append([nmax, basis.dim, e0, level["nu1"], level["nu2"], level["vacuum_overlap"],
                     level["count_below_window"]])

    out.write_json("results/spectrum.json", payload)
    out.write_csv(
        "tables/spectrum.csv",
        ["nmax", "dimension", "e0", "nu1", "nu2", "vacuum_overlap", "count_below_window"],
        rows,
    )
    out.finalize()
    top = payload["levels"][str(cfg["nmax"][-1])]
    # a level below 2 has no two-boson tail, so no nu2
    gaps = " ".join(
        f"{nu}={'n/a' if top[nu] is None else format(top[nu], '.6f')}" for nu in ("nu1", "nu2")
    )
    print(f"spectrum over levels {cfg['nmax']}: top-level e0={top['eigenvalues'][0]:.12f} {gaps}")
    return 0


def _reduction_levels(cfg: dict) -> List[int]:
    """The truncation levels the reduction can use (``nmax >= 2``), ascending."""
    levels = [n for n in cfg["nmax"] if n >= 2]
    if not levels:
        raise ConfigError("verification needs at least one truncation level >= 2")
    return levels


def _shifted(cfg: dict) -> bool:
    """Whether the configured fiber shift ``xi`` is nonzero."""
    return cfg["xi"] is not None and any(x != 0.0 for x in cfg["xi"])


def _verify_payload(cfg: dict, only: Optional[List[str]]) -> dict:
    from .identities import IDENTITY_IDS, run_suite, schur_equivalence_report
    from .reduction import build_workspace

    # checked here, not only in run_suite, which a shifted run never calls
    if only is not None and not only:
        raise ConfigError("--filter names no identity id")
    unknown = sorted(set(only or ()) - set(IDENTITY_IDS))
    if unknown:
        raise ConfigError(f"unknown identity ids: {unknown}")
    grid, ff = instance_from_config(cfg)
    solver = solver_from_config(cfg)
    levels = _reduction_levels(cfg)
    # the bundle's weighted decomposition exists only at zero fiber shift, so
    # a shifted run has no identity suite and reads only its top level
    shifted = _shifted(cfg)
    workspaces = {
        n: build_workspace(grid, ff, n, config=solver, xi=cfg["xi"], fock_cap=cfg["fock_cap"])
        for n in (levels[-1:] if shifted else levels)
    }
    top = workspaces[levels[-1]]
    reports, bs, assumptions = [], None, None
    if not shifted:
        reports = run_suite(workspaces, only=only)
        bundle = top.build_bundle()
        bs, assumptions = bundle.bs_limit_check(), bundle.assumptions()
    equivalence = schur_equivalence_report(top)

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
    if args.filter is not None:
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
        grid, cfg["form_factor"]["profile"], coupling, alpha=cfg["form_factor"]["alpha"]
    )
    top = _reduction_levels(cfg)[-1]
    ws = build_workspace(grid, ff, top, config=solver, fock_cap=cfg["fock_cap"])
    bundle = ws.build_bundle()
    assumptions = bundle.assumptions()
    buffer = solver.buffer(grid.h)
    n_below = count_below(ws.hamiltonian, ws.symmetry, ws.e0 + 1.0, buffer)
    o_min = min(
        float(np.linalg.eigvalsh(ws.one_particle_operator(e))[0]) for e in EPSILON_GRID
    )
    norm_residual = norm_identity_value(bundle)
    return {
        "coupling": coupling,
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
    couplings = cfg["scan"]["couplings"]
    jobs = _scan_jobs(args.jobs, len(couplings))
    # the layers _scan_row runs, loaded before the pool forks, so that its
    # workers inherit them instead of importing numpy and scipy each
    from . import identities  # noqa: F401

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

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
