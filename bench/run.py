#!/usr/bin/env python3
"""Benchmark of the polaronlab CLI: three workloads, end to end and by layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload ref-cycle --seed 1 --seconds 20 --trace 0

Load is one closed-loop client: each request is a fresh
``python -m polaronlab.cli ...`` process, started after the previous one
exits.  ``--trace 0`` loops the workload's request sequence until
``--seconds`` have passed and reports the end-to-end metrics.  ``--trace 1``
runs the sequence once as processes, then replays it in this process,
after a warm-up, once with spans off and once with spans on, and reports
the per-layer metrics.  ``--smoke`` swaps in tiny instances.

Every request runs with one BLAS/OpenMP thread, so the only concurrency is
the two pool workers of ``scan --jobs 2``.  Every output is checked against
dense references (see ``checks.py``); a request fails if it exits non-zero,
fails a check, or its run directory fails ``polaronlab report``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch files live under ``.bench_work/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in every request
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
REF_CACHE = WORK / "refs"
SETUP_SPAWNS = 7
#: a run must end within 180 s; requests still running then are killed
RUN_BUDGET_S = 170.0


@dataclass
class Outcome:
    """One finished request."""

    request: workloads.Request
    wall: float
    code: int
    rss_mb: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.errors)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        vendor = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        **{var.lower(): os.environ[var] for var in THREAD_VARS},
        "scan_jobs": workloads.SCAN_JOBS,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
    }


def child_env(threads: int = 1) -> Dict[str, str]:
    # POLARONLAB_* variables would override config entries: the program
    # must see only the generated config files
    env = {k: v for k, v in os.environ.items() if not k.startswith("POLARONLAB_")}
    env.update({var: str(threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def spawn(args: List[str], deadline: float, log: Path, threads: int = 1):
    """Run ``python3 ARGS`` to completion through ``launch.py``.

    Returns (wall seconds, exit code, peak RSS in MB); the launcher times
    the process and reads its rusage.  A process still running at the
    deadline is killed with its whole process group.
    """
    result = log.with_suffix(".result.json")
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-S", str(LAUNCHER), str(result),
                                 sys.executable, *args],
                                env=child_env(threads), cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
    if not result.exists():  # killed at the deadline
        return time.perf_counter() - start, -signal.SIGKILL, 0.0
    got = json.loads(result.read_text())
    result.unlink()
    return got["wall"], got["code"], got["maxrss_kb"] / 1024.0


def measure_setup(deadline: float, log: Path) -> List[float]:
    """Fresh-interpreter ``import polaronlab.cli`` times, after one warm-up."""
    times = []
    for i in range(SETUP_SPAWNS + 1):
        wall, code, _ = spawn(["-c", "import polaronlab.cli"], deadline, log)
        if code != 0:
            raise RuntimeError(f"import polaronlab.cli failed: {log.read_text()[-2000:]}")
        if i:
            times.append(wall)
    return times


def prepare_references(wl: workloads.Workload, run_dir: Path, deadline: float) -> None:
    """Compute every dense reference the checks will need, in a helper
    process that uses every core, while no request runs."""
    jobs = []
    for req in wl.requests:
        cfg = wl.configs.get(req.config)
        if cfg is None:
            continue
        if req.command == "scan":
            jobs += [[cfg, max(cfg["nmax"]), float(g)] for g in cfg["scan"]["couplings"]]
        levels = cfg["nmax"] if req.command == "spectrum" else [max(cfg["nmax"])]
        jobs += [[cfg, n, None] for n in levels]
    path = run_dir / "reference-jobs.json"
    path.write_text(json.dumps(jobs))
    log = run_dir / "reference.stderr"
    _, code, _ = spawn([str(Path(checks.__file__)), str(path), str(REF_CACHE)], deadline, log,
                       threads=os.cpu_count() or 1)
    if code != 0:
        raise RuntimeError(f"dense references failed: {log.read_text()[-2000:]}")


def run_sequence(wl, seq_dir: Path, cfg_dir: Path, deadline: float):
    """Send the request sequence back to back.

    Returns the outcomes and the sequence's wall time: the sum of its
    requests' spawn-to-exit times, without the launcher's own start-up.
    """
    seq_dir.mkdir(parents=True, exist_ok=True)
    outcomes = []
    for req in wl.requests:
        args = ["-m", "polaronlab.cli", *req.argv(seq_dir, cfg_dir)]
        wall, code, rss = spawn(args, deadline, seq_dir / f"{req.out}.stderr")
        outcomes.append(Outcome(req, wall, code, rss))
    return outcomes, sum(o.wall for o in outcomes)


def check_outcomes(wl, seq_dir: Path, outcomes: List[Outcome],
                   ledger: checks.ManifestLedger) -> None:
    """Attach output-check errors to each outcome (outside any timing)."""
    for out in outcomes:
        req = out.request
        run_dir = seq_dir / req.out
        if out.code != 0:
            out.errors.append(checks.failure_reason(run_dir, seq_dir / f"{req.out}.stderr"))
            continue
        if req.command == "report":
            continue
        wanted = (req.extra[req.extra.index("--filter") + 1].split(",")
                  if "--filter" in req.extra else None)
        out.errors += checks.check_request(req.command, wl.configs[req.config], run_dir,
                                           REF_CACHE, identities=wanted)
        code = checks.report_exit_code(run_dir)
        if code != 0:
            out.errors.append(f"polaronlab report exited {code}")
        else:
            out.errors += ledger.check((req.config, req.command), run_dir)


def replay(wl, seq_dir: Path, cfg_dir: Path, tracer: Optional[spans.Tracer] = None):
    """Send the sequence through ``polaronlab.cli.main`` in this process.

    ``scan`` runs with one job: the replay times each coupling serially.
    """
    from polaronlab.cli import main

    seq_dir.mkdir(parents=True, exist_ok=True)
    outcomes = []
    for req in wl.requests:
        argv = req.argv(seq_dir, cfg_dir, jobs=1)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            if tracer is not None:
                tracer.start(req.out)
            try:
                code = main(argv)
            except Exception:  # a crashing request is a failed request
                code = -1
                sink.write(traceback.format_exc())
            finally:
                wall = time.perf_counter() - start
                if tracer is not None:
                    tracer.stop()
        out = Outcome(req, wall, code)
        if code < 0:
            out.errors.append(sink.getvalue()[-2000:])
        outcomes.append(out)
    return outcomes


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def request_series(outcomes: List[Outcome]) -> Dict[str, List[float]]:
    series: Dict[str, List[float]] = {}
    for out in outcomes:
        series.setdefault(out.request.metric, []).append(out.wall)
    return series


def end_to_end(args, wl, cfg_dir: Path, run_dir: Path, deadline: float):
    prepare_references(wl, run_dir, deadline)
    setup = measure_setup(deadline, run_dir / "setup.stderr")
    ledger = checks.ManifestLedger()
    outcomes: List[Outcome] = []
    walls: List[float] = []
    start = time.monotonic()
    seq = 0
    while True:
        seq_dir = run_dir / f"seq{seq}"
        got, wall = run_sequence(wl, seq_dir, cfg_dir, deadline)
        check_outcomes(wl, seq_dir, got, ledger)
        outcomes += got
        walls.append(wall)
        shutil.rmtree(seq_dir)
        seq += 1
        if time.monotonic() - start >= args.seconds or any(o.code < 0 for o in got):
            break
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "peak_rss_mb": _metric(max(o.rss_mb for o in outcomes), "MB"),
    }
    lines = [f"{'setup_s':<18} {statistics.median(setup):10.4f} s    (median of {len(setup)})"]
    for name, values in request_series(outcomes).items():
        lines.append(f"{name:<18} {statistics.median(values):10.4f} s    (median of {len(values)}, "
                     f"max {max(values):.4f})")
    lines.append(f"{'wall_s':<18} {statistics.median(walls):10.4f} s    (median of {len(walls)} sequences)")
    lines.append(f"{'peak_rss_mb':<18} {metrics['peak_rss_mb']['value']:10.1f} MB")
    return outcomes, metrics, lines


def trace_run(args, wl, cfg_dir: Path, run_dir: Path, deadline: float):
    setup = measure_setup(deadline, run_dir / "setup.stderr")
    procs, _ = run_sequence(wl, run_dir / "procs", cfg_dir, deadline)

    smoke = workloads.make(wl.name, args.seed, smoke=True)
    smoke.write_configs(run_dir / "warmup-configs")
    replay(smoke, run_dir / "warmup", run_dir / "warmup-configs")
    plain = replay(wl, run_dir / "plain", cfg_dir)
    tracer = spans.Tracer()
    traced = replay(wl, run_dir / "traced", cfg_dir, tracer)

    # references only now: their dense matrices stay out of the replays' heap
    prepare_references(wl, run_dir, deadline)
    ledger = checks.ManifestLedger()
    for name, outcomes in (("procs", procs), ("plain", plain), ("traced", traced)):
        check_outcomes(wl, run_dir / name, outcomes, ledger)

    layer = layer_metrics(tracer, procs, traced, plain, setup, run_dir / "traced")
    write_trace(args, tracer, environment())
    lines = [f"{o.request.out:<24} process {p.wall:9.4f} s  in-process {o.wall:9.4f} s  "
             f"traced {t.wall:9.4f} s" for p, o, t in zip(procs, plain, traced)]
    lines += [f"{name:<40} {m['value']:14.6g} {m['unit']}" for name, m in layer.items()]
    selfs = {name: m["value"] for name, m in layer.items() if name.endswith(".self_s")}
    total = sum(selfs.values()) or 1.0
    lines.append("layer shares of traced in-process time: " + ", ".join(
        f"{name[:-7]} {100 * v / total:.1f}%" for name, v in selfs.items()))
    return procs + plain + traced, layer, lines


#: identity spans in IDENTITY_IDS order; both resolvent-splitting ids come
#: from one call and share one span
IDENTITY_SPANS = (
    "identities.pullthrough-creator",
    "identities.pullthrough-annihilator",
    "identities.resolvent-splitting",
    "identities.vacuum-schur",
    "identities.lambda-oneboson",
    "identities.c0-identity",
    "identities.rearrangement",
    "identities.norm-identity",
    "identities.energy-derivatives",
)


def layer_metrics(tracer, procs, traced, plain, setup, traced_dir: Path) -> dict:
    sp = tracer.spans
    counts = tracer.counts
    t = lambda *names: spans.group_time(sp, names)  # noqa: E731
    selfs = spans.self_times(sp)
    by_layer = {layer: 0.0 for layer in spans.LAYERS}
    for s, dt in zip(sp, selfs):
        by_layer[s[1]] += dt
    traced_total = sum(o.wall for o in traced)
    plain_total = sum(o.wall for o in plain)
    scan_procs = [o.wall for o in procs if o.request.command == "scan"]
    scan_serial = t("cli._scan_row")
    eq = tracer.equivalence
    artifact_bytes = sum(f.stat().st_size for f in traced_dir.rglob("*") if f.is_file())

    m: Dict[str, dict] = {}

    def put(name, value, unit):
        m[name] = _metric(float(value), unit)

    put("grid.build_s", t("grid.build_grid", "grid.sample_form_factor"), "s")
    put("fock.enumerate_basis_s", t("fock.enumerate_basis"), "s")
    put("fock.assemble_hamiltonian_s", t("fock.assemble_hamiltonian", "fock.field_operator"), "s")
    put("fock.creators_s", t("fock.creator"), "s")
    put("fock.dim", counts["dim"], "count")
    put("fock.nnz", counts["nnz"], "count")
    put("spectral.ground_energy_s", t("spectral.ground_energy"), "s")
    put("spectral.spectrum_summary_s", t("spectral.spectrum_summary"), "s")
    put("spectral.nu1_s", t("spectral.nu1"), "s")
    put("spectral.nu2_s", t("spectral.nu2"), "s")
    put("spectral.count_below_s", t("spectral.count_below"), "s")
    put("spectral.gershgorin_failures", counts["gershgorin_failures"], "count")
    put("reduction.build_workspace_s",
        t("reduction.build_workspace", "reduction.ReductionWorkspace.__init__"), "s")
    put("reduction.c_matrix_s", t("reduction.ReductionWorkspace.c_matrix"), "s")
    put("reduction.d_kernel_s", t("reduction.ReductionWorkspace.d_kernel"), "s")
    put("reduction.build_bundle_s", t("reduction.ReductionWorkspace.build_bundle"), "s")
    put("reduction.handles", counts["handles"], "count")
    put("reduction.z_handles", counts["z_handles"], "count")
    put("reduction.solves", counts["solves"], "count")
    put("reduction.solves_per_handle",
        counts["solves"] / counts["handles"] if counts["handles"] else 0.0, "ratio")
    put("identities.run_suite_s", t("identities.run_suite"), "s")
    for name in IDENTITY_SPANS:
        put(f"{name}_s", t(name), "s")
    put("identities.equivalence_s", t("identities.schur_equivalence_report"), "s")
    put("identities.window_eigs", sum(e["window"] for e in eq), "count")
    put("identities.crossings", sum(e["crossings"] for e in eq), "count")
    put("identities.bisection_handles",
        sum(e["new_handles"] - e["window"] - e["grid"] for e in eq), "count")
    put("storage.operator_payload_s", t("storage.operator_payload"), "s")
    put("storage.artifact_bytes", artifact_bytes, "bytes")
    put("cli.import_s", statistics.median(setup), "s")
    # the replay runs scan serially, so scan has no in-process counterpart
    put("cli.unaccounted_s", sum(p.wall - o.wall for p, o in zip(procs, plain)
                                 if p.request.command != "scan"), "s")
    put("cli.scan_parallel_eff",
        scan_serial / (workloads.SCAN_JOBS * scan_procs[0]) if scan_procs else 0.0, "ratio")
    for layer, dt in by_layer.items():
        put(f"{layer}.self_s", dt, "s")
    put("trace.replay_s", traced_total, "s")
    put("trace.overhead_s", traced_total - plain_total, "s")
    put("trace.spans", len(sp), "count")
    return m



def write_trace(args, tracer: spans.Tracer, env: dict) -> None:
    out = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "environment": env,
        "fields": ["name", "layer", "start", "end", "parent", "request"],
        "requests": tracer.requests,
        "spans": tracer.spans,
    }))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny instances, for self-tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polaronlab" / "cli.py").is_file():
        print(f"error: no polaronlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + RUN_BUDGET_S

    env = environment()
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    cfg_dir = run_dir / "configs"
    wl = workloads.make(args.workload, args.seed, smoke=args.smoke)
    wl.write_configs(cfg_dir)
    try:
        run = trace_run if args.trace else end_to_end
        outcomes, metrics, lines = run(args, wl, cfg_dir, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [o for o in outcomes if o.failed]
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(outcomes)} requests, {len(failed)} failed")
    for line in lines:
        print(line)
    print(f"{'failed_frac':<18} {len(failed) / len(outcomes):10.4f} ratio")
    for o in failed[:5]:
        print(f"FAILED {o.request.command} {o.request.out} exit {o.code}: "
              f"{'; '.join(o.errors)[:500]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
