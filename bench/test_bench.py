"""Self-tests of the benchmark on its tiny smoke instances.

Run from the root of a checkout::

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _deadline() -> float:
    return time.monotonic() + 120.0


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("artifact", ["c0-{}-spectrum/tables/spectrum.csv",
                                      "c0-{}-build/matrices/hamiltonian_n3.bin"])
def test_corrupted_artifact_raises_failed_frac(tmp_path, artifact):
    wl = workloads.make("ref-cycle", 0, smoke=True)
    cfg_dir = tmp_path / "configs"
    wl.write_configs(cfg_dir)
    run.prepare_references(wl, tmp_path, _deadline())
    seq_dir = tmp_path / "seq"
    outcomes, _ = run.run_sequence(wl, seq_dir, cfg_dir, _deadline())

    def failed_frac() -> float:
        fresh = [run.Outcome(o.request, o.wall, o.code) for o in outcomes]
        run.check_outcomes(wl, seq_dir, fresh, run.checks.ManifestLedger())
        return sum(o.failed for o in fresh) / len(fresh)

    assert failed_frac() == 0.0
    profile = next(iter(wl.configs)).split("-", 1)[1]
    target = seq_dir / artifact.format(profile)
    data = bytearray(target.read_bytes())
    data[-2] ^= 0x01
    target.write_bytes(bytes(data))
    assert failed_frac() == 1 / len(outcomes)


def test_self_times_sum_to_span_durations(tmp_path):
    wl = workloads.make("d2-verify", 0, smoke=True)
    cfg_dir = tmp_path / "configs"
    wl.write_configs(cfg_dir)
    tracer = spans.Tracer()
    outcomes = run.replay(wl, tmp_path / "traced", cfg_dir, tracer)
    assert all(o.code >= 0 for o in outcomes)  # no request crashed

    selfs = spans.self_times(tracer.spans)
    assert min(selfs) >= -1e-9
    roots = [i for i, s in enumerate(tracer.spans) if s[4] < 0]
    assert [tracer.spans[i][5] for i in roots] == list(range(len(wl.requests)))
    for i in roots:
        root = tracer.spans[i]
        assert root[0] == "cli.main"
        request_self = sum(dt for s, dt in zip(tracer.spans, selfs) if s[5] == root[5])
        assert request_self == pytest.approx(root[3] - root[2], abs=1e-9)
    assert tracer.counts["handles"] > 0 and tracer.counts["solves"] > 0


def test_missing_handle_table_is_an_error():
    with pytest.raises(RuntimeError, match=spans.HANDLE_TABLE):
        spans.handle_table(object())


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_driver_reports_every_declared_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "d2-verify", "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= len(workloads.make("d2-verify", 0).requests)
    assert result["correct"] is (result["failed"] == 0)
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_driver_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ref-cycle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_workloads_are_seed_deterministic():
    for name in workloads.WORKLOADS:
        a, b = workloads.make(name, 7), workloads.make(name, 7)
        assert a.configs == b.configs
        assert a.configs != workloads.make(name, 8).configs
