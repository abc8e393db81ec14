"""Span recording for the traced in-process replay, observed from outside.

The replay calls ``polaronlab.cli.main`` in this process, exactly as the
command line would.  A ``sys.settrace`` hook opens a span whenever a
function or method defined in one of the package's layer modules is
entered and closes it when that frame returns; line events are switched
off per frame, so untraced code pays only the call-event check.  Nothing
in the package is patched or wrapped.

A span is ``[name, layer, start, end, parent, request]``.  Spans are kept
in memory and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children; since a request's
spans nest inside its root ``cli.main`` span, the self times of one
request sum to the root span's duration.

Handle and solve counts come from the workspaces the replay created: the
tracer keeps each ``ReductionWorkspace`` it sees constructed and reads its
resolvent-handle table afterwards, read-only.  That table is private;
``HANDLE_TABLE`` names it, and ``handle_table`` raises if it is gone
rather than letting the counts read 0.
"""

from __future__ import annotations

import importlib
import inspect
import operator
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

LAYERS = ("grid", "fock", "spectral", "reduction", "identities", "storage", "cli")

#: private attribute of ReductionWorkspace holding its resolvent handles
HANDLE_TABLE = "_handles"

_GENERATOR_FLAGS = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR

#: span names that differ from ``<layer>.<qualname>``: identity checks are
#: named by their IDENTITY_IDS entry (both resolvent-splitting ids come from
#: one call), the two tail gaps by their index
_RENAME: Dict[str, Callable[[dict], str]] = {
    "spectral.nu": lambda loc: f"spectral.nu{loc.get('n')}",
    "identities.verify_pullthrough": lambda loc: f"identities.pullthrough-{loc.get('kind')}",
    "identities.verify_resolvent_identities": lambda loc: "identities.resolvent-splitting",
    "identities.verify_vacuum_schur": lambda loc: "identities.vacuum-schur",
    "identities.verify_lambda_identity": lambda loc: "identities.lambda-oneboson",
    "identities.verify_c0_identity": lambda loc: "identities.c0-identity",
    "identities.verify_rearrangement": lambda loc: "identities.rearrangement",
    "identities.verify_norm_identity": lambda loc: "identities.norm-identity",
    "identities.verify_energy_derivatives": lambda loc: "identities.energy-derivatives",
}


def handle_table(ws) -> dict:
    table = getattr(ws, HANDLE_TABLE, None)
    if not isinstance(table, dict):
        raise RuntimeError(
            f"ReductionWorkspace.{HANDLE_TABLE} is gone or no longer a dict; "
            "the handle and solve counts cannot be read"
        )
    return table


def gershgorin_lower(mat) -> float:
    """Gershgorin lower bound of a symmetric sparse matrix's spectrum."""
    m = mat.tocsr()
    diag = m.diagonal()
    radii = np.asarray(abs(m).sum(axis=1)).ravel() - np.abs(diag)
    return float(np.min(diag - radii))


@dataclass
class _Target:
    layer: str
    name: str
    rename: Optional[Callable[[dict], str]] = None


def _targets() -> Dict[object, _Target]:
    """Code object -> span naming, for every function of every layer module."""
    out: Dict[object, _Target] = {}

    def add(func, layer: str, qualname: str) -> None:
        code = getattr(func, "__code__", None)
        if code is None or code.co_flags & _GENERATOR_FLAGS:
            return
        name = f"{layer}.{qualname}"
        out[code] = _Target(layer, name, _RENAME.get(name))

    for layer in LAYERS:
        mod = importlib.import_module(f"polaronlab.{layer}")
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                add(obj, layer, attr)
            elif inspect.isclass(obj):
                for mname, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        add(member, layer, f"{obj.__name__}.{mname}")
    return out


COUNT_KEYS = ("handles", "z_handles", "solves", "gershgorin_failures", "dim", "nnz")


class Tracer:
    """Records the spans of a replay; ``start``/``stop`` bracket one request."""

    def __init__(self):
        self.targets = _targets()
        self.spans: List[list] = []
        self.requests: List[str] = []
        self.equivalence: List[dict] = []
        #: totals over requests; dim and nnz are maxima (see workspace_counts)
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self._workspaces: List[object] = []
        self._stack: List[tuple] = []
        self._request = -1
        self._ws_init = importlib.import_module(
            "polaronlab.reduction").ReductionWorkspace.__init__.__code__
        self._equiv = importlib.import_module(
            "polaronlab.identities").schur_equivalence_report.__code__
        self._assemble = importlib.import_module(
            "polaronlab.fock").assemble_hamiltonian.__code__

    # -- sys.settrace hooks ------------------------------------------------

    def _call(self, frame, event, arg):
        target = self.targets.get(frame.f_code)
        if target is None:
            return None
        name = target.rename(frame.f_locals) if target.rename else target.name
        extra = None
        if frame.f_code is self._ws_init:
            self._workspaces.append(frame.f_locals["self"])
        elif frame.f_code is self._equiv:
            ws = frame.f_locals["ws"]
            extra = (ws, len(handle_table(ws)))
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, target.layer, time.perf_counter(), None, parent, self._request])
        self._stack.append((index, frame, extra))
        frame.f_trace_lines = False
        return self._local

    def _local(self, frame, event, arg):
        if event == "return":
            end = time.perf_counter()
            index, top, extra = self._stack.pop()
            if top is not frame:
                raise RuntimeError("span stack out of order")
            self.spans[index][3] = end
            if frame.f_code is self._assemble and arg is not None:
                self.counts["dim"] = max(self.counts["dim"], arg.dim)
                self.counts["nnz"] = max(self.counts["nnz"], arg.nnz)
            if extra is not None and isinstance(arg, dict):
                ws, before = extra
                self.equivalence.append({
                    "new_handles": len(handle_table(ws)) - before,
                    "window": len(arg["window_eigenvalues"]),
                    "grid": len(arg["grid"]),
                    "crossings": len(arg["crossings"]),
                })
        return self._local

    def start(self, label: str) -> None:
        self.requests.append(label)
        self._request = len(self.requests) - 1
        sys.settrace(self._call)

    def stop(self) -> None:
        """End the request: stop tracing, then read and release its workspaces."""
        sys.settrace(None)
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans left open")
        for key, value in workspace_counts(self._workspaces).items():
            merge = max if key in ("dim", "nnz") else operator.add
            self.counts[key] = merge(self.counts[key], value)
        self._workspaces.clear()


# -- analysis ---------------------------------------------------------------


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    selfs = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            selfs[s[4]] -= s[3] - s[2]
    return selfs


def group_time(spans: List[list], names) -> float:
    """Total duration of spans named in ``names`` that have no ancestor
    named in ``names`` (so recursion and nesting are not counted twice)."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s[0] not in names:
            continue
        p = s[4]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][4]
        if p < 0:
            total += s[3] - s[2]
    return total


def workspace_counts(workspaces) -> dict:
    """Handle, solve and Gershgorin-failure counts of the given workspaces,
    and the largest Fock dimension and Hamiltonian nonzero count among them.

    A Gershgorin failure is a handle on the sparse path (dimension above
    ``dense_threshold``) whose matrix, rebuilt through the public
    ``restricted_matrix``, has a Gershgorin lower bound <= 0: its
    definiteness check falls back to a Lanczos eigenvalue solve.
    """
    out = dict.fromkeys(COUNT_KEYS, 0)
    for ws in workspaces:
        out["dim"] = max(out["dim"], ws.basis.dim)
        out["nnz"] = max(out["nnz"], ws.hamiltonian.nnz)
        for h in handle_table(ws).values():
            out["handles"] += 1
            out["z_handles"] += h.kind == "full"
            out["solves"] += h.solves
            if h.solver.dim > ws.config.dense_threshold:
                mat = ws.restricted_matrix(h.kind, h.k, h.shift)
                out["gershgorin_failures"] += gershgorin_lower(mat) <= 0.0
    return out
