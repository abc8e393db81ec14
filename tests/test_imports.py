"""Import footprint: each command loads only the layers it runs.

Every check runs in a fresh interpreter, since this test process has long
loaded the whole package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import polaronlab as pl
from polaronlab import cli

SRC = str(Path(pl.__file__).resolve().parent.parent)

#: prints the exit code of ``cli.main(ARGV)`` (or None) and the loaded
#: modules of interest (the package, numerics, process pools) as one JSON line
_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    from polaronlab import cli
    code = cli.main(argv)
else:
    import polaronlab.cli
wanted = ("numpy", "scipy", "polaronlab", "concurrent", "multiprocessing")
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] in wanted)]))
"""


def _fresh(script: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _loaded_by(argv):
    """Exit code and loaded modules of interest of one fresh
    ``cli.main(argv)`` (``argv=None``: a plain ``import polaronlab.cli``)."""
    code, modules = json.loads(_fresh(_PROBE, json.dumps(argv)))
    return code, set(modules)


def _numerics(modules):
    return {m for m in modules if m.split(".")[0] in ("numpy", "scipy")}


def _config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "grid": {"d": 1, "K": 1.0, "h": 1.0},
        "form_factor": {"profile": "gaussian", "g": 0.2},
        "nmax": [2],
    }))
    return str(path)


def test_cli_import_loads_no_numerics():
    code, modules = _loaded_by(None)
    assert code is None
    assert not _numerics(modules)
    # only ``scan --jobs`` above 1 opens a process pool
    assert not {m for m in modules if m.split(".")[0] in ("concurrent", "multiprocessing")}
    assert modules == {"polaronlab", "polaronlab.cli", "polaronlab.errors", "polaronlab.storage"}


def test_report_loads_no_numerics(tmp_path):
    out = tmp_path / "vrun"
    assert cli.main(["verify", "--config", _config(tmp_path), "--out", str(out)]) == 0
    code, modules = _loaded_by(["report", "--out", str(out)])
    assert code == 0
    assert not _numerics(modules)


def test_build_loads_neither_reduction_nor_identities(tmp_path):
    out = tmp_path / "brun"
    code, modules = _loaded_by(["build", "--config", _config(tmp_path), "--out", str(out)])
    assert code == 0 and (out / "manifest.json").is_file()
    assert "polaronlab.fock" in modules
    # the solver defaults come from ``fock``, so no solver layer loads
    assert not {"polaronlab.reduction", "polaronlab.identities", "polaronlab.spectral"} & modules
    # the Hamiltonian is assembled and persisted as numpy triplets
    assert "numpy" in modules
    assert not {m for m in modules if m.split(".")[0] == "scipy"}


def test_public_names_resolve_on_first_use():
    script = """
import json, sys
import polaronlab as pl
bare = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
missing = [name for name in pl.__all__ if getattr(pl, name, None) is None]
listed = sorted(set(pl.__all__) - set(dir(pl)))
try:
    pl.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([bare, missing, listed, list(pl.grid.PROFILES), unknown]))
"""
    bare, missing, listed, profiles, unknown = json.loads(_fresh(script))
    assert bare == []
    assert missing == [] and listed == []
    assert profiles == list(pl.grid.PROFILES)
    assert "no_such_name" in unknown
