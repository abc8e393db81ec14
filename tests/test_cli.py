"""Command-line interface: exit codes, artifacts, determinism, schemas."""

import hashlib
import json
import logging
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import polaronlab as pl
from polaronlab import cli, storage

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def _schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


#: the two-mode instance most tests run
BASE_CONFIG = {
    "grid": {"d": 1, "K": 1.0, "h": 1.0},
    "form_factor": {"profile": "gaussian", "g": 0.2},
    "nmax": [2, 3],
    "scan": {"couplings": [0.0, 0.1]},
}


def _write_config(tmp_path, **overrides):
    cfg = {**BASE_CONFIG, **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _tree_digest(root):
    """Stable digest of an entire directory tree (paths + bytes)."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_unknown_config_key_is_fatal(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"grid": {"d": 1, "K": 1.0, "h": 1.0, "spacing": 0.5}}))
    assert cli.main(["build", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    # the identity bounds are constants of the program, not config entries
    cfg = _write_config(tmp_path, thresholds={"exact": 1e-9})
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o2")]) == 2
    assert "'thresholds'" in capsys.readouterr().err
    # the operator files are always written, so there is no cache switch
    cfg = _write_config(tmp_path, cache=True)
    assert cli.main(["build", "--config", cfg, "--out", str(tmp_path / "o3")]) == 2
    assert "cache" in capsys.readouterr().err


def test_missing_required_key_is_fatal(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"grid": {"d": 1, "K": 1.0}, "form_factor": {"profile": "gaussian"}}))
    assert cli.main(["build", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "grid.h" in capsys.readouterr().err


def test_value_validation_is_fatal(tmp_path):
    cfg = _write_config(tmp_path, xi=[0.1, 0.2])  # xi length != d
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    path = tmp_path / "nojson.json"
    path.write_text("{not json")
    assert cli.main(["build", "--config", str(path), "--out", str(tmp_path / "o3")]) == 2
    assert cli.main(["build", "--config", str(tmp_path / "absent.json")]) == 2


NON_NUMERIC = [
    # entry, environment value, config-file override
    ("form_factor.g", "abc", {"form_factor": {"profile": "gaussian", "g": "abc"}}),
    ("fock_cap", "abc", {"fock_cap": "abc"}),
    ("xi", '["a"]', {"xi": ["a"]}),
    ("grid.K", "abc", {"grid": {"d": 1, "K": "abc", "h": 1.0}}),
    # a boolean is no number, although Python's int and float take it
    ("grid.d", "true", {"grid": {"d": True, "K": 1.0, "h": 1.0}}),
    ("nmax", "[2, true]", {"nmax": [2, True]}),
]

NON_FINITE = [
    # id, entry, environment value, config-file override: a string that
    # casts to NaN or infinity, and JSON's NaN and Infinity
    ("grid.K=nan", "grid.K", "nan", {"grid": {"d": 1, "K": "nan", "h": 1.0}}),
    ("xi=inf", "xi", '["inf"]', {"xi": ["inf"]}),
    ("form_factor.g=NaN", "form_factor.g", "NaN",
     {"form_factor": {"profile": "gaussian", "g": float("nan")}}),
    ("grid.h=Infinity", "grid.h", "Infinity", {"grid": {"d": 1, "K": 1.0, "h": float("inf")}}),
]


@pytest.mark.parametrize(
    "entry, raw, override",
    [pytest.param(*case, id=case[0]) for case in NON_NUMERIC]
    + [pytest.param(*case[1:], id=case[0]) for case in NON_FINITE],
)
@pytest.mark.parametrize("source", ["file", "env"])
def test_non_numeric_value_is_a_config_error(
    tmp_path, monkeypatch, capsys, source, entry, raw, override
):
    """A value read as a number that is none, or that is not finite, exits 2
    and names its entry."""
    if source == "file":
        cfg = _write_config(tmp_path, **override)
    else:
        cfg = _write_config(tmp_path)
        monkeypatch.setenv("POLARONLAB_" + entry.upper().replace(".", "__"), raw)
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"{entry} must be a number" in capsys.readouterr().err


BAD_INTEGERS = [
    # entry, value: an integer entry takes a JSON integer and nothing it
    # would truncate, and the seed must suit numpy's generator
    ("solver.seed", -1),
    ("solver.seed", 2**32),
    ("solver.seed", 7.9),
    ("fock_cap", 200000.0),
    ("grid.mode_cap", 64.5),
]


def _override(entry, value):
    """The config-file form of one ``entry = value`` override."""
    head, _, leaf = entry.partition(".")
    if not leaf:
        return {head: value}
    return {head: {**BASE_CONFIG.get(head, {}), leaf: value}}


@pytest.mark.parametrize(
    "entry, value", [pytest.param(*case, id=f"{case[0]}={case[1]}") for case in BAD_INTEGERS]
)
@pytest.mark.parametrize("source", ["file", "env"])
def test_bad_integer_value_is_a_config_error(tmp_path, monkeypatch, capsys, source, entry, value):
    """A non-integer or out-of-range integer entry exits 2 and names its
    entry, before any solver sees it."""
    if source == "file":
        cfg = _write_config(tmp_path, **{"nmax": [2], **_override(entry, value)})
    else:
        cfg = _write_config(tmp_path, nmax=[2])
        monkeypatch.setenv("POLARONLAB_" + entry.upper().replace(".", "__"), json.dumps(value))
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert entry in capsys.readouterr().err


#: per config entry: a value in a form that casts to the entry's kind, and
#: the value it reads back as
ENTRY_SAMPLES = {
    "grid.d": (1, 1),
    "grid.K": (1, 1.0),
    "grid.h": ("1.0", 1.0),
    "grid.mode_cap": (64, 64),
    "form_factor.profile": ("constant", "constant"),
    "form_factor.g": (0, 0.0),
    "form_factor.alpha": ("0.5", 0.5),
    "nmax": (2, [2]),
    "xi": ([0], [0.0]),
    "solver.seed": (7, 7),
    "scan.couplings": ([0, "0.5"], [0.0, 0.5]),
    "fock_cap": (1000, 1000),
}


@pytest.mark.parametrize("entry", list(cli._entries()))
@pytest.mark.parametrize("source", ["file", "env"])
def test_entry_reads_back_as_its_kind(tmp_path, monkeypatch, source, entry):
    """Each entry, set from the file or the environment, is its kind in the
    loaded config and in the manifest: ``"K": 1`` is recorded as ``1.0``."""
    given, expected = ENTRY_SAMPLES[entry]
    if source == "file":
        cfg = _write_config(tmp_path, **_override(entry, given))
    else:
        cfg = _write_config(tmp_path)
        monkeypatch.setenv("POLARONLAB_" + entry.upper().replace(".", "__"), json.dumps(given))
    out = tmp_path / "o"
    assert cli.main(["build", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())["config"]
    section, _, leaf = entry.rpartition(".")
    for config in (cli.load_config(cfg), manifest):
        value = (config[section] if section else config)[leaf]
        assert value == expected
        assert type(value) is type(expected)
        if isinstance(value, list):
            assert [type(v) for v in value] == [type(v) for v in expected]


def test_solver_entries_are_the_solver_config_defaults(tmp_path):
    """The one ``solver`` entry and its default are ``SolverConfig``'s
    seed, which ``fock`` holds so that ``build`` need not load
    ``spectral``."""
    loaded = cli.load_config(_write_config(tmp_path), environ={})
    assert loaded["solver"] == {"seed": pl.SolverConfig().seed}


@pytest.mark.parametrize("variable", ["POLARONLAB___", "POLARONLAB_", "POLARONLAB_GRID"])
def test_override_naming_no_entry_is_fatal(tmp_path, monkeypatch, capsys, variable):
    """A ``POLARONLAB_`` variable that names no entry, or names a section,
    exits 2 and names the variable."""
    monkeypatch.setenv(variable, "1")
    cfg = _write_config(tmp_path)
    assert cli.main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert variable in capsys.readouterr().err


#: every config entry that became a constant of the program, with the value
#: it used to default to
REMOVED_ENTRIES = {
    "thresholds.exact": 1e-9,
    "thresholds.protected": 1e-8,
    "thresholds.schur_fixed_point": 1e-8,
    "thresholds.norm_identity": 1e-2,
    "thresholds.gradient_rel": 1e-5,
    "thresholds.gradient_origin": 1e-8,
    "thresholds.hessian_rel": 1e-4,
    "thresholds.equivalence": 1e-7,
    "epsilon_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
    "bs_ladder": [0.1, 0.01, 0.001],
    "spectrum_count": 6,
    "solver.eig_tol": 1e-10,
    "solver.lin_tol": 1e-12,
    "solver.max_iterations": 5000,
    "solver.dense_threshold": 500,
}


@pytest.mark.parametrize("entry", sorted(REMOVED_ENTRIES))
@pytest.mark.parametrize("source", ["file", "env"])
def test_removed_config_entry_is_fatal(tmp_path, monkeypatch, capsys, source, entry):
    """A config that sets a removed entry, even to its old default, exits 2
    and names the unknown key (file) or the variable (environment)."""
    value = REMOVED_ENTRIES[entry]
    if source == "file":
        cfg = _write_config(tmp_path, nmax=[2], **_override(entry, value))
        head, _, leaf = entry.partition(".")
        # a removed section is unknown as a whole
        named = repr(head if head == "thresholds" else leaf or head)
    else:
        cfg = _write_config(tmp_path, nmax=[2])
        named = "POLARONLAB_" + entry.upper().replace(".", "__")
        monkeypatch.setenv(named, json.dumps(value))
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err


def test_build_artifacts(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "build"
    assert cli.main(["build", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    jsonschema.validate(manifest, _schema("manifest.schema.json"))
    assert manifest["command"] == "build"
    for rel in (
        "tables/form_factor.csv",
        "matrices/hamiltonian_n2.bin",
        "matrices/hamiltonian_n3.bin",
        "results/build.json",
    ):
        assert rel in manifest["artifacts"], rel
        blob = (out / rel).read_bytes()
        assert storage.sha256_bytes(blob) == manifest["artifacts"][rel]
    # the persisted operator round-trips and has the advertised dimension
    op, sidecar = storage.load_operator(out / "matrices" / "hamiltonian_n3")
    build_info = json.loads((out / "results" / "build.json").read_text())
    assert op.dim == build_info["levels"]["3"]["dimension"] == pl.fock_dimension(2, 3)
    assert sidecar["meta"]["nmax"] == 3
    assert build_info["levels"]["3"]["sector_dimensions"] == [1, 2, 3, 4]


#: sha256 of the operator files ``build`` writes, recorded when the
#: Hamiltonian was still assembled through scipy's CSR canonicalization:
#: the reference instance (d=1, K=2, h=0.5, gaussian g=0.1) and a d=2
#: instance at a nonzero fiber momentum
FROZEN_OPERATORS = {
    "reference": (
        {"grid": {"d": 1, "K": 2.0, "h": 0.5}, "form_factor": {"profile": "gaussian", "g": 0.1},
         "nmax": [2, 3, 4]},
        {
            2: "13d94686845a4ba4ea0f3d48d55f6db7097ec20e3e8fab64f089998f3b4b9a6e",
            3: "030f28716862e9e4f59c24b46ff77eb6dd104c20730acf7657b76e7d89e04526",
            4: "fffd7c2adfcefb869056bece7caa3936e308ce30e978b18cb270f72c7be90c5f",
        },
    ),
    "d2-shifted": (
        {"grid": {"d": 2, "K": 1.0, "h": 0.5}, "form_factor": {"profile": "gaussian", "g": 0.1},
         "nmax": [2], "xi": [0.6, 0.0]},
        {2: "74610e8bb903d4600fc629d173acbfaef0ca4e4add8fdc040659906c3814dff7"},
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_OPERATORS))
def test_persisted_operators_are_frozen(tmp_path, name):
    cfg, digests = FROZEN_OPERATORS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "build"
    assert cli.main(["build", "--config", str(path), "--out", str(out)]) == 0
    for nmax, digest in digests.items():
        blob = (out / "matrices" / f"hamiltonian_n{nmax}.bin").read_bytes()
        assert storage.sha256_bytes(blob) == digest, nmax


#: sha256 of ``tables/form_factor.csv`` as ``build`` wrote it through its
#: own CSV writer, before ``RunDirectory.write_csv`` took the table over
FROZEN_FORM_FACTORS = {
    "d1": (
        {"grid": {"d": 1, "K": 2.0, "h": 0.5}, "form_factor": {"profile": "gaussian", "g": 0.1},
         "nmax": [2]},
        "495abaaddc6dc1cf3472fd86d64e02928c0d0ac5d3732de87f99fc6793875a45",
    ),
    "d3": (
        {"grid": {"d": 3, "K": 1.0, "h": 1.0}, "form_factor": {"profile": "froehlich", "g": 0.1},
         "nmax": [2]},
        "8acfda8163c1a19ae315127b58f102cb1503590a8752e8c1f34b1a1d01d2ad48",
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_FORM_FACTORS))
def test_form_factor_table_is_frozen(tmp_path, name):
    cfg, digest = FROZEN_FORM_FACTORS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "build"
    assert cli.main(["build", "--config", str(path), "--out", str(out)]) == 0
    assert storage.sha256_bytes((out / "tables" / "form_factor.csv").read_bytes()) == digest


def test_spectrum_artifacts_and_values(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "spec"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "results" / "spectrum.json").read_text())
    jsonschema.validate(payload, _schema("spectrum.schema.json"))
    # cross-check the top level against a direct library computation
    grid = pl.build_grid(1, 1.0, 1.0)
    ff = pl.sample_form_factor(grid, "gaussian", 0.2)
    basis = pl.enumerate_basis(grid.size, 3)
    ham = pl.assemble_hamiltonian(basis, grid, ff).matrix
    symmetry = pl.fock.symmetry(basis, grid, ff)
    e0, _ = pl.ground_energy(ham, symmetry.block_matrix(ham, 0), symmetry, pl.SolverConfig())
    level = payload["levels"]["3"]
    assert level["eigenvalues"][0] == pytest.approx(e0, abs=1e-12)
    assert level["count_below_window"] == 1
    csv_text = (out / "tables" / "spectrum.csv").read_text()
    assert csv_text.splitlines()[0] == "nmax,dimension,e0,nu1,nu2,vacuum_overlap,count_below_window"
    assert len(csv_text.splitlines()) == 3


def test_spectrum_logs_its_sector_once_per_level(tmp_path, caplog):
    """``spectrum`` builds one point group per level and logs its character
    blocks once there."""
    cfg = _write_config(
        tmp_path, grid={"d": 2, "K": 1.0, "h": 0.5}, form_factor={"profile": "gaussian", "g": 0.1}
    )
    with caplog.at_level(logging.DEBUG, logger="polaronlab"):
        assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "spec")]) == 0
    blocks = [r.getMessage() for r in caplog.records if r.getMessage().startswith("character")]
    assert blocks == [
        "character blocks of the order-8 group (flip order 4): dims [97, 78, 78, 72] of 325",
        "character blocks of the order-8 group (flip order 4): dims [777, 728, 728, 692] of 2925",
    ]


def test_spectrum_certifies_each_level_by_one_factor_per_block(tmp_path, caplog, monkeypatch):
    """``spectrum`` certifies each level by one inertia factor per character
    block, at its list cut, and builds no other: shift-invert Lanczos
    solves by PCG.  It forms ``Q_0^T H Q_0`` once per level, for the lists,
    the vacuum overlap and both tail gaps (d=2, four blocks, ``nmax``
    [2, 3])."""
    cfg = _write_config(
        tmp_path, grid={"d": 2, "K": 1.0, "h": 0.5}, form_factor={"profile": "gaussian", "g": 0.1}
    )
    formed = []
    block_matrix = pl.fock.Symmetry.block_matrix

    def counting(self, mat, c):
        formed.append(c)
        return block_matrix(self, mat, c)

    monkeypatch.setattr(pl.fock.Symmetry, "block_matrix", counting)
    with caplog.at_level(logging.DEBUG, logger="polaronlab.factor"):
        assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "spec")]) == 0
    labels = [r.getMessage().split(":")[0] for r in caplog.records if r.name == "polaronlab.factor"]
    assert labels == ["factor eigenvalue list"] * 2 * 4
    assert formed == [0, 1, 2, 3] * 2


def test_spectrum_top_level_one_has_no_nu2(tmp_path, capsys):
    """At ``nmax = 1`` there is no two-boson tail: ``nu2`` is null in the
    artifact and ``n/a`` in the summary line, and the command succeeds."""
    cfg = _write_config(tmp_path, nmax=[1])
    out = tmp_path / "spec"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    assert "nu2=n/a" in capsys.readouterr().out
    level = json.loads((out / "results" / "spectrum.json").read_text())["levels"]["1"]
    definitions = _schema("spectrum.schema.json")["definitions"]
    jsonschema.validate(level, {"definitions": definitions, "$ref": "#/definitions/level"})
    assert level["nu2"] is None


def test_verify_passes_and_prints_summary(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "verify"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    identity_lines = [l for l in lines if l.startswith("[")]
    # one line per identity plus the spectral-correspondence line
    assert len(identity_lines) == len(pl.IDENTITY_IDS) + 1
    assert all("[  ok]" in l or "[ n/a]" in l for l in identity_lines)
    assert lines[-1] == "verification passed"
    payload = json.loads((out / "results" / "verification.json").read_text())
    jsonschema.validate(payload, _schema("verification.schema.json"))
    assert payload["passed"] is True
    assert payload["equivalence"]["consistent"] is True
    assert payload["assumptions"]["all_hold"] is True
    assert payload["bs_limit"]["values"]
    assert (out / "tables" / "identities.csv").exists()


def test_verify_filter(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "vf"
    rc = cli.main(
        ["verify", "--config", cfg, "--out", str(out), "--filter", "vacuum-schur,c0-identity"]
    )
    assert rc == 0
    payload = json.loads((out / "results" / "verification.json").read_text())
    assert [r["identity"] for r in payload["identities"]] == ["vacuum-schur", "c0-identity"]
    assert cli.main(["verify", "--config", cfg, "--out", str(out), "--filter", "nope"]) == 2


def test_verify_nonzero_fiber_shift(tmp_path, capsys):
    """With a fiber shift only the spectral correspondence applies; the
    decomposition-based identities are skipped rather than faked."""
    cfg = _write_config(
        tmp_path,
        grid={"d": 1, "K": 1.0, "h": 0.25},
        form_factor={"profile": "gaussian", "g": 0.05},
        nmax=[2],
        xi=[0.45],
    )
    out = tmp_path / "shifted"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "results" / "verification.json").read_text())
    jsonschema.validate(payload, _schema("verification.schema.json"))
    assert payload["identities"] == []
    assert payload["bs_limit"] is None
    assert payload["assumptions"] is None
    eq = payload["equivalence"]
    assert eq["consistent"] is True
    assert len(eq["window_eigenvalues"]) == 3
    assert all(m["matched"] for m in eq["spectrum_to_kernel"])
    assert all(c["matched"] and c["eps_lo"] < c["eps_hi"] for c in eq["crossings"])


def test_shifted_verify_rejects_unknown_filter(tmp_path, capsys):
    """An unknown identity id exits 2 at a nonzero fiber shift too, where no
    ``run_suite`` runs to check it (``test_verify_filter`` covers xi = 0)."""
    cfg = _write_config(
        tmp_path,
        grid={"d": 1, "K": 1.0, "h": 0.25},
        form_factor={"profile": "gaussian", "g": 0.05},
        nmax=[2],
        xi=[0.45],
    )
    out = tmp_path / "filtered"
    assert cli.main(["verify", "--config", cfg, "--out", str(out), "--filter", "no-such-id"]) == 2
    assert "no-such-id" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("xi", [None, [0.45]])
@pytest.mark.parametrize("ids", [",", " ", ""])
def test_verify_rejects_an_empty_filter(tmp_path, capsys, ids, xi):
    """A filter that names no id after stripping exits 2, at zero and at a
    nonzero fiber shift, rather than passing with no identity run."""
    cfg = _write_config(tmp_path, nmax=[2], xi=xi)
    out = tmp_path / "empty"
    assert cli.main(["verify", "--config", cfg, "--out", str(out), "--filter", ids]) == 2
    assert "--filter names no identity id" in capsys.readouterr().err
    assert not out.exists()


def test_verify_builds_only_the_bundles_it_reads(tmp_path, monkeypatch):
    """A filter that selects only bundle-free checks builds one bundle, the
    top level's, which the assumptions and the regularized limit read."""
    built = []

    class CountingBundle(pl.reduction.ReductionBundle):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pl.reduction, "ReductionBundle", CountingBundle)
    cfg = _write_config(tmp_path, nmax=[2, 3, 4])
    out = str(tmp_path / "vacuum")
    assert cli.main(["verify", "--config", cfg, "--out", out, "--filter", "vacuum-schur"]) == 0
    assert len(built) == 1


def test_shifted_verify_builds_only_its_top_level(tmp_path, monkeypatch):
    """At a nonzero fiber shift the equivalence report reads only the top
    level, so that is the one workspace ``verify`` builds."""
    built = []

    class CountingWorkspace(pl.reduction.ReductionWorkspace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.basis.nmax)

    monkeypatch.setattr(pl.reduction, "ReductionWorkspace", CountingWorkspace)
    cfg = _write_config(
        tmp_path,
        grid={"d": 1, "K": 1.0, "h": 0.25},
        form_factor={"profile": "gaussian", "g": 0.05},
        xi=[0.45],
    )
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "shifted")]) == 0
    assert built == [3]


def test_env_overrides(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path)
    out1 = tmp_path / "base"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out1)]) == 0
    e0_base = json.loads((out1 / "results" / "spectrum.json").read_text())["levels"]["3"][
        "eigenvalues"
    ][0]

    monkeypatch.setenv("POLARONLAB_FORM_FACTOR__G", "0.05")
    out2 = tmp_path / "weak"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out2)]) == 0
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["config"]["form_factor"]["g"] == 0.05
    e0_weak = json.loads((out2 / "results" / "spectrum.json").read_text())["levels"]["3"][
        "eigenvalues"
    ][0]
    assert e0_weak > e0_base  # weaker coupling binds less
    monkeypatch.delenv("POLARONLAB_FORM_FACTOR__G")

    # keys match whatever their case: ``K`` is reached through ``GRID__K``
    monkeypatch.setenv("POLARONLAB_GRID__K", "2.0")
    out3 = tmp_path / "wide"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out3)]) == 0
    manifest = json.loads((out3 / "manifest.json").read_text())
    assert manifest["config"]["grid"]["K"] == 2.0
    instance = json.loads((out3 / "results" / "spectrum.json").read_text())["instance"]
    assert instance["cutoff"] == 2.0 and instance["mode_count"] == 4
    monkeypatch.delenv("POLARONLAB_GRID__K")

    monkeypatch.setenv("POLARONLAB_NOSUCH", "1")
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    monkeypatch.delenv("POLARONLAB_NOSUCH")
    monkeypatch.setenv("POLARONLAB_SOLVER", "1")  # targets a section
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "y")]) == 2


def test_reruns_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out2)]) == 0
    assert _tree_digest(out1) == _tree_digest(out2)


def test_report_detects_corruption(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["build", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["report", "--out", str(out)]) == 0
    assert "intact" in capsys.readouterr().out

    target = out / "tables" / "form_factor.csv"
    target.write_bytes(target.read_bytes() + b"tampered\n")
    assert cli.main(["report", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "form_factor.csv" in err

    target.unlink()
    assert cli.main(["report", "--out", str(out)]) == 4
    assert cli.main(["report", "--out", str(tmp_path / "missing")]) == 2

    # a truncated manifest is corruption too, not a traceback
    manifest = out / "manifest.json"
    manifest.write_bytes(manifest.read_bytes()[:40])
    capsys.readouterr()
    assert cli.main(["report", "--out", str(out)]) == 4
    assert "manifest.json is not valid JSON" in capsys.readouterr().err

    # so is a manifest that parses but is no manifest
    for text in ("[]", '{"artifacts": []}'):
        manifest.write_text(text)
        assert cli.main(["report", "--out", str(out)]) == 4
        assert "is not a run manifest" in capsys.readouterr().err


def test_report_summarizes_verification(tmp_path, capsys):
    cfg = _write_config(tmp_path, nmax=[2])
    out = tmp_path / "vrun"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "overall: passed" in text


def test_report_rejects_malformed_records(tmp_path, capsys):
    """Intact artifacts, but a config hash that is no string, or a
    verification record of the wrong shape: corruption, not a traceback."""
    cfg = _write_config(tmp_path, nmax=[2])
    out = tmp_path / "vrun"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())

    manifest_path.write_text(json.dumps({**manifest, "config_sha256": 5}))
    capsys.readouterr()
    assert cli.main(["report", "--out", str(out)]) == 4
    assert "config hash" in capsys.readouterr().err

    record = "results/verification.json"
    for text in ("[]", '{"identities": 5}', '{"identities": [1]}', '{"identities": [{}]}'):
        (out / record).write_text(text)
        artifacts = {**manifest["artifacts"], record: storage.sha256_bytes(text.encode())}
        manifest_path.write_text(json.dumps({**manifest, "artifacts": artifacts}))
        assert cli.main(["report", "--out", str(out)]) == 4, text
        assert "is not a verification record" in capsys.readouterr().err


def test_report_rejects_a_directory_artifact(tmp_path, capsys):
    """A manifest entry that names a directory is corruption that names the
    entry, not an ``IsADirectoryError`` traceback."""
    cfg = _write_config(tmp_path, nmax=[2])
    out = tmp_path / "vrun"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    artifacts = {**manifest["artifacts"], "results": "00"}
    manifest_path.write_text(json.dumps({**manifest, "artifacts": artifacts}))
    capsys.readouterr()
    assert cli.main(["report", "--out", str(out)]) == 4
    assert "corrupt artifact: results (not a file)" in capsys.readouterr().err


def test_report_rejects_artifacts_outside_the_run(tmp_path, capsys):
    """An absolute path, or one that climbs out through ``..``, is
    corruption even when the file it names carries its true hash."""
    cfg = _write_config(tmp_path, nmax=[2])
    out, other = tmp_path / "run", tmp_path / "other"
    for root in (out, other):
        assert cli.main(["build", "--config", cfg, "--out", str(root)]) == 0
    foreign = other / "manifest.json"
    digest = storage.sha256_bytes(foreign.read_bytes())
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for relpath in ("../other/manifest.json", str(foreign), "tables/../../other/manifest.json"):
        artifacts = {**manifest["artifacts"], relpath: digest}
        manifest_path.write_text(json.dumps({**manifest, "artifacts": artifacts}))
        capsys.readouterr()
        assert cli.main(["report", "--out", str(out)]) == 4, relpath
        err = capsys.readouterr().err
        assert f"corrupt artifact: {relpath} (outside the run directory)" in err


def test_scan_artifacts(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "scan"
    assert cli.main(["scan", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "results" / "scan.json").read_text())
    jsonschema.validate(payload, _schema("scan.schema.json"))
    rows = payload["rows"]
    assert [r["coupling"] for r in rows] == [0.0, 0.1]
    free, coupled = rows
    assert free["e0"] == pytest.approx(0.0, abs=1e-12)
    assert free["a_norm"] is None
    assert free["assumptions"]["all_hold"] is True
    assert coupled["e0"] < 0
    assert coupled["c0"] > 0
    assert coupled["count_below_window"] == 1
    # the CSV renders the absent entries as empty cells
    csv_lines = (out / "tables" / "scan.csv").read_text().splitlines()
    free_line = csv_lines[1]
    assert free_line.split(",")[6] == ""  # a_norm column


def test_scan_needs_a_reduction_level(tmp_path, capsys):
    """Like ``verify``, ``scan`` rejects a ladder without nmax >= 2 up front."""
    cfg = _write_config(tmp_path, nmax=[1])
    assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path / "s"), "--jobs", "2"]) == 2
    assert "at least one truncation level >= 2" in capsys.readouterr().err


def test_scan_rejects_a_fiber_shift(tmp_path, monkeypatch, capsys):
    """``scan`` builds reduction bundles, which need ``xi = 0``: a nonzero
    ``xi`` exits 2 and names it before any worker starts, and a zero one
    runs."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a rejected scan must not start a pool")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    shifted = dict(
        grid={"d": 1, "K": 1.0, "h": 0.25},
        form_factor={"profile": "gaussian", "g": 0.05},
        nmax=[2],
        scan={"couplings": [0.05]},
    )
    cfg = _write_config(tmp_path, xi=[0.45], **shifted)
    assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path / "s"), "--jobs", "2"]) == 2
    assert "xi" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()
    cfg = _write_config(tmp_path, xi=[0.0], **shifted)
    assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path / "z")]) == 0


def test_scan_window_cut_stays_above_e0(tmp_path):
    """At h = 1 the count buffer stays below the window width, so the count
    cut ``e0 + 1 - buffer`` never falls on ``e0`` (at coupling 0 it did, and
    the counted operator was singular)."""
    cfg = _write_config(tmp_path, nmax=[4], scan={"couplings": [0.0, 0.2]})
    out = tmp_path / "scan"
    assert cli.main(["scan", "--config", cfg, "--out", str(out)]) == 0
    rows = json.loads((out / "results" / "scan.json").read_text())["rows"]
    assert [r["count_below_window"] for r in rows] == [1, 1]


def test_scan_parallel_matches_serial(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["scan", "--config", cfg, "--out", str(out1), "--jobs", "1"]) == 0
    assert cli.main(["scan", "--config", cfg, "--out", str(out2), "--jobs", "2"]) == 0
    assert _tree_digest(out1) == _tree_digest(out2)


def test_scan_jobs_clamped_to_couplings_and_cores(tmp_path, monkeypatch):
    # a platform without affinity masks counts the machine's cores
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert [cli._scan_jobs(j, 4) for j in (0, 1, 2, 8)] == [1, 1, 2, 2]
    assert cli._scan_jobs(8, 1) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._scan_jobs(8, 4) == 1

    def no_pool(*args, **kwargs):
        raise AssertionError("a clamped single-worker scan must not start a pool")

    # one coupling: --jobs 8 runs serially, in this process
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    cfg = _write_config(tmp_path, scan={"couplings": [0.1]})
    assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path / "s"), "--jobs", "8"]) == 0


def test_scan_jobs_clamped_to_the_affinity_mask(monkeypatch):
    """Under an affinity mask of one CPU, on a machine of more cores,
    ``--jobs 2`` gets one worker."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    assert cli._scan_jobs(2, 4) == 1


def test_csv_cells_match_json_values(tmp_path):
    """A numpy scalar reads as its plain value, a non-finite one as an empty
    cell, as ``null`` does in the JSON artifacts."""
    out = cli.RunDirectory(str(tmp_path / "run"), {}, "test")
    out.write_csv("t.csv", ["a", "b", "c"], [[np.float64(0.1), float("nan"), np.float64(np.inf)]])
    assert (tmp_path / "run" / "t.csv").read_text() == "a,b,c\n0.1,,\n"


def test_default_out_name_is_config_hash(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["build", "--config", cfg]) == 0
    candidates = list(tmp_path.glob("run-build-*"))
    assert len(candidates) == 1
    # the directory name embeds the config hash: rerunning reuses it
    assert cli.main(["build", "--config", cfg]) == 0
    assert list(tmp_path.glob("run-build-*")) == candidates


def test_spectrum_lists_both_copies_of_a_double_eigenvalue(tmp_path):
    """On d=2, K=1, h=0.5, nmax 3 (dim 2925, sparse path) the eigenvalue
    0.4394721 is double; the ``spectrum`` artifact lists it twice, as dense
    ``eigvalsh`` does."""
    cfg = _write_config(
        tmp_path,
        grid={"d": 2, "K": 1.0, "h": 0.5},
        form_factor={"profile": "constant", "g": 0.5},
        nmax=[3],
    )
    out = tmp_path / "spec"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    level = json.loads((out / "results" / "spectrum.json").read_text())["levels"]["3"]
    blocks = level["diagnostics"]["blocks"]
    assert [b["dim"] for b in blocks] == [777, 728, 728, 692]
    assert all(b["method"] == "shift-invert" for b in blocks)
    listed = np.round(level["eigenvalues"], 7)
    assert np.count_nonzero(listed == 0.4394721) == 2
    assert listed[:5].tolist() == [-0.8163776, 0.4110231, 0.4394721, 0.4394721, 0.4403373]
