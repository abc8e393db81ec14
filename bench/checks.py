"""Dense references and output checks for benchmark requests.

Every generated config gets a dense ``scipy.linalg.eigvalsh`` reference per
truncation level, computed outside the timed region and cached on disk by
content hash.  The checks compare the CLI's artifacts against it:

* ``spectrum``: ``e0``, ``nu1``, ``nu2`` to ``TOL``; ``count_below_window``
  exactly;
* ``verify``: ``passed`` and ``equivalence.consistent`` true, ``e0`` to
  ``TOL``, the window count equal to the dense count in (e0, e0+1), and
  with ``--filter`` exactly the requested identities reported;
* ``scan``: every row's ``e0``, ``nu1``, ``nu2`` and count as above;
* ``build``: level dimensions equal the closed-form Fock dimension, and the
  top-level operator file, parsed here independently of the package,
  reproduces the dense ``e0``;
* every run directory re-hashes cleanly under ``polaronlab report``, and a
  repeated (config, command) pair gives a byte-identical manifest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import scipy.linalg as sla

TOL = 1e-8
#: bump when the cached reference format or its computation changes
REF_VERSION = 1
DEFAULT_EIG_TOL = 1e-10  # the CLI's solver.eig_tol default, used for the count buffer


def _key(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:24]


def reference(cfg: dict, nmax: int, cache_dir: Path, g: Optional[float] = None) -> dict:
    """Dense spectral reference of one (config, level, coupling), cached."""
    ff = dict(cfg["form_factor"])
    if g is not None:
        ff["g"] = g
    ident = {"v": REF_VERSION, "grid": cfg["grid"], "ff": ff, "xi": cfg.get("xi"),
             "nmax": nmax}
    path = cache_dir / f"{_key(ident)}.json"
    if path.exists():
        return json.loads(path.read_text())
    from polaronlab import build_grid, enumerate_basis, sample_form_factor
    from polaronlab.fock import assemble_hamiltonian

    gcfg = cfg["grid"]
    grid = build_grid(gcfg["d"], float(gcfg["K"]), float(gcfg["h"]))
    form = sample_form_factor(grid, ff["profile"], float(ff["g"]),
                              alpha=float(ff.get("alpha", 1.0)))
    basis = enumerate_basis(grid.size, nmax)
    xi = None if cfg.get("xi") is None else np.asarray(cfg["xi"], dtype=float)
    dense = assemble_hamiltonian(basis, grid, form, xi=xi).matrix.toarray()
    eigs = sla.eigvalsh(dense)
    e0 = float(eigs[0])
    tails = {}
    for n in (1, 2):
        if n <= nmax:
            start = basis.tail_start(n)
            low = sla.eigvalsh(dense[start:, start:], subset_by_index=[0, 0])
            tails[n] = float(low[0]) - 1.0 - e0
    buffer = max(grid.h**2, 10.0 * DEFAULT_EIG_TOL)
    ref = {
        "dim": basis.dim,
        "e0": e0,
        "nu1": tails.get(1),
        "nu2": tails.get(2),
        "count_below_window": int(np.sum(eigs <= e0 + 1.0 - buffer)),
        "window_count": int(np.sum((eigs > e0 + 1e-12) & (eigs < e0 + 1.0))),
    }
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ref))
    tmp.replace(path)
    return ref


def _close(got, want, what: str, errors: List[str]) -> None:
    if got is None or want is None:
        if got != want:
            errors.append(f"{what}: got {got}, want {want}")
    elif not abs(float(got) - float(want)) <= TOL:
        errors.append(f"{what}: got {got!r}, dense reference {want!r}")


def _equal(got, want, what: str, errors: List[str]) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


def _fock_dim(modes: int, nmax: int) -> int:
    return sum(math.comb(modes + n - 1, n) for n in range(nmax + 1))


def _operator_e0(bin_path: Path) -> float:
    """Lowest eigenvalue of a stored operator, parsed from its raw format."""
    blob = bin_path.read_bytes()
    dim, nnz, _ = np.frombuffer(blob, dtype="<u8", count=3)
    rec = np.frombuffer(blob, dtype=[("r", "<i8"), ("c", "<i8"), ("v", "<f8")],
                        offset=24, count=int(nnz))
    dense = np.zeros((int(dim), int(dim)))
    dense[rec["r"], rec["c"]] = rec["v"]
    return float(sla.eigvalsh(dense, subset_by_index=[0, 0])[0])


def check_request(command: str, cfg: Optional[dict], run_dir: Path, cache_dir: Path,
                  identities: Optional[List[str]] = None) -> List[str]:
    """Errors in one finished request's artifacts (empty list: correct).

    ``identities``: for a ``verify --filter`` request, the ids it asked for,
    which must be exactly the ids reported.
    """
    errors: List[str] = []
    try:
        if command == "spectrum":
            levels = _read(run_dir / "results" / "spectrum.json")["levels"]
            _equal(sorted(levels, key=int), [str(n) for n in cfg["nmax"]], "levels", errors)
            for n in cfg["nmax"]:
                got, ref = levels[str(n)], reference(cfg, n, cache_dir)
                _close(got["eigenvalues"][0], ref["e0"], f"n{n} e0", errors)
                _close(got["nu1"], ref["nu1"], f"n{n} nu1", errors)
                _close(got["nu2"], ref["nu2"], f"n{n} nu2", errors)
                _equal(got["count_below_window"], ref["count_below_window"],
                       f"n{n} count_below_window", errors)
        elif command == "verify":
            payload = _read(run_dir / "results" / "verification.json")
            eq = payload["equivalence"]
            ref = reference(cfg, max(cfg["nmax"]), cache_dir)
            _equal(payload["passed"], True, "passed", errors)
            if identities is not None:
                _equal(sorted(r["identity"] for r in payload["identities"]), sorted(identities),
                       "identities run", errors)
            _equal(eq["consistent"], True, "equivalence.consistent", errors)
            _close(eq["e0"], ref["e0"], "equivalence.e0", errors)
            _equal(len(eq["window_eigenvalues"]), ref["window_count"], "window count", errors)
        elif command == "scan":
            rows = _read(run_dir / "results" / "scan.json")["rows"]
            couplings = sorted(float(c) for c in cfg["scan"]["couplings"])
            _equal([r["coupling"] for r in rows], couplings, "scan couplings", errors)
            top = max(cfg["nmax"])
            for row in rows:
                ref = reference(cfg, top, cache_dir, g=row["coupling"])
                tag = f"g={row['coupling']}"
                _close(row["e0"], ref["e0"], f"{tag} e0", errors)
                _close(row["nu1"], ref["nu1"], f"{tag} nu1", errors)
                _close(row["nu2"], ref["nu2"], f"{tag} nu2", errors)
                _equal(row["count_below_window"], ref["count_below_window"],
                       f"{tag} count_below_window", errors)
        elif command == "build":
            levels = _read(run_dir / "results" / "build.json")["levels"]
            modes = (2 * round(cfg["grid"]["K"] / cfg["grid"]["h"]) + 1) ** cfg["grid"]["d"] - 1
            for n in cfg["nmax"]:
                _equal(levels[str(n)]["dimension"], _fock_dim(modes, n), f"n{n} dim", errors)
            top = max(cfg["nmax"])
            _close(_operator_e0(run_dir / "matrices" / f"hamiltonian_n{top}.bin"),
                   reference(cfg, top, cache_dir)["e0"], f"n{top} stored-operator e0", errors)
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        errors.append(f"unreadable {command} output: {type(exc).__name__}: {exc}")
    return errors


def failure_reason(run_dir: Path, log: Path) -> str:
    """Why a request exited non-zero: failed identities, else its stderr."""
    verification = run_dir / "results" / "verification.json"
    if verification.exists():
        payload = _read(verification)
        failed = [r["identity"] for r in payload["identities"] if r["passed"] is False]
        if not payload["equivalence"]["consistent"]:
            failed.append("spectral-correspondence")
        return "verification failed: " + ", ".join(failed)
    return log.read_text(errors="replace")[-500:] if log.exists() else ""


def report_exit_code(run_dir: Path) -> int:
    """Exit code of ``polaronlab report`` on ``run_dir``, run in process."""
    from polaronlab.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["report", "--out", str(run_dir)])


class ManifestLedger:
    """First manifest hash per (config, command); repeats must match it."""

    def __init__(self):
        self.first: Dict[tuple, str] = {}

    def check(self, key: tuple, run_dir: Path) -> List[str]:
        digest = hashlib.sha256((run_dir / "manifest.json").read_bytes()).hexdigest()
        want = self.first.setdefault(key, digest)
        if digest != want:
            return [f"manifest of repeated {key} differs: {digest[:12]} != {want[:12]}"]
        return []


def main(argv=None) -> int:
    """Fill the reference cache: ``checks.py JOBS.json CACHE_DIR``.

    ``JOBS.json`` lists ``[config, nmax, g or null]`` triples.  The driver
    runs this in its own process before any timing, with one BLAS thread
    per core, since nothing else runs then.
    """
    jobs, cache = argv if argv is not None else sys.argv[1:]
    for cfg, nmax, g in json.loads(Path(jobs).read_text()):
        reference(cfg, nmax, Path(cache), g=g)
    return 0


if __name__ == "__main__":
    sys.exit(main())
