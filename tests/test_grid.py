"""Momentum grid and form-factor sampling."""

import json

import numpy as np
import pytest

import polaronlab as pl
from polaronlab import ConfigError, DimensionCapError, cli


def test_grid_modes_1d():
    grid = pl.build_grid(1, 2.0, 0.5)
    expect = [[-2.0], [-1.5], [-1.0], [-0.5], [0.5], [1.0], [1.5], [2.0]]
    assert grid.size == 8
    assert np.array_equal(grid.modes, np.array(expect))


def test_grid_excludes_origin_and_counts():
    grid = pl.build_grid(2, 1.0, 1.0)
    assert grid.size == (2 * 1 + 1) ** 2 - 1 == 8
    assert not np.any(np.all(grid.modes == 0.0, axis=1))
    # lexicographic ordering of the index tuples
    assert np.array_equal(grid.modes[0], np.array([-1.0, -1.0]))
    assert np.array_equal(grid.modes[-1], np.array([1.0, 1.0]))


def test_negation_table():
    """The ``-I`` element of the point group negates every mode."""
    grid = pl.build_grid(2, 1.0, 0.5)
    ops, perms = grid.point_group()
    [neg] = [perm for op, perm in zip(ops, perms) if np.array_equal(op, -np.eye(2))]
    assert np.array_equal(grid.modes[neg], -grid.modes)
    # an involution with no fixed points (origin removed)
    assert np.array_equal(neg[neg], np.arange(grid.size))
    assert np.all(neg != np.arange(grid.size))


@pytest.mark.parametrize("d, K, h, order", [(1, 2.0, 0.5, 2), (2, 1.0, 0.5, 8), (3, 1.0, 1.0, 48)])
def test_point_group(d, K, h, order):
    """Every signed coordinate permutation, the identity first, with the mode
    permutation ``k_j -> g k_j`` it induces."""
    grid = pl.build_grid(d, K, h)
    ops, perms = grid.point_group()
    assert ops.shape == (order, d, d) and perms.shape == (order, grid.size)
    assert np.array_equal(ops[0], np.eye(d)) and np.array_equal(perms[0], np.arange(grid.size))
    assert len({op.tobytes() for op in ops}) == order
    for op, perm in zip(ops, perms):
        assert np.array_equal(np.abs(op).sum(axis=0), np.ones(d))
        assert np.array_equal(np.abs(op).sum(axis=1), np.ones(d))
        assert np.array_equal(np.sort(perm), np.arange(grid.size))
        assert np.array_equal(grid.modes[perm], grid.modes @ op.T)


def test_point_group_cap(monkeypatch):
    """A group table over ``POINT_GROUP_CAP`` entries is refused before the
    group is built: d=4 at K=h=1 needs 4 * 384 * 80 entries."""
    monkeypatch.setattr(pl.grid, "POINT_GROUP_CAP", 10_000)
    with pytest.raises(DimensionCapError, match="point group"):
        pl.build_grid(4, 1.0, 1.0).point_group()


@pytest.mark.parametrize("profile", ["gaussian", "froehlich"])
def test_radial_profile_keeps_the_whole_point_group(profile):
    """At spacing 0.3 the float sum of squares of ``index * h`` depends on
    the coordinate order; norms from the integer index do not, so a radial
    profile keeps all 48 elements of the d=3 point group."""
    grid = pl.build_grid(3, 0.9, 0.3)
    ff = pl.sample_form_factor(grid, profile, 0.2)
    assert len(pl.grid.stabilizer(grid, ff)) == 48


def test_grid_validation():
    with pytest.raises(ConfigError):
        pl.build_grid(0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        pl.build_grid(1, 1.0, 0.0)
    with pytest.raises(ConfigError):
        pl.build_grid(1, -1.0, 0.5)
    with pytest.raises(ConfigError):
        pl.build_grid(1, 1.0, 0.3)  # K not an integer multiple of h


def test_grid_mode_cap():
    with pytest.raises(DimensionCapError):
        pl.build_grid(3, 8.0, 0.25)  # 65^3 - 1 modes, far over the cap
    # explicit cap override
    with pytest.raises(DimensionCapError):
        pl.build_grid(1, 2.0, 0.5, mode_cap=7)
    assert pl.build_grid(1, 2.0, 0.5, mode_cap=8).size == 8


def test_form_factor_values_gaussian():
    grid = pl.build_grid(1, 1.0, 0.5)
    ff = pl.sample_form_factor(grid, "gaussian", 0.3)
    expect = 0.3 * np.exp(-grid.norms() ** 2) * np.sqrt(0.5)
    assert np.allclose(ff.values, expect, rtol=0, atol=1e-15)
    assert ff.norm == pytest.approx(np.linalg.norm(expect), abs=1e-15)


def test_form_factor_values_froehlich_and_constant():
    grid = pl.build_grid(2, 1.0, 0.5)
    ff = pl.sample_form_factor(grid, "froehlich", 1.0, alpha=0.5)
    expect = grid.norms() ** (-0.5) * 0.5  # h^{d/2} = 0.5
    assert np.allclose(ff.values, expect, rtol=0, atol=1e-15)
    const = pl.sample_form_factor(grid, "constant", 2.0)
    assert np.allclose(const.values, 2.0 * 0.5, rtol=0, atol=1e-15)


def test_form_factor_validation():
    grid = pl.build_grid(2, 1.0, 1.0)
    with pytest.raises(ConfigError):
        pl.sample_form_factor(grid, "froehlich", 1.0, alpha=2.0)  # alpha >= d
    with pytest.raises(ConfigError):
        pl.sample_form_factor(grid, "froehlich", 1.0, alpha=0.0)
    with pytest.raises(ConfigError):
        pl.sample_form_factor(grid, "gaussian", -0.1)
    with pytest.raises(ConfigError):
        pl.sample_form_factor(grid, "lorentzian", 1.0)


def test_form_factor_csv_roundtrip(tmp_path):
    """``build`` writes the sampled amplitudes as ``tables/form_factor.csv``;
    parsing the table gives back the grid's momenta and amplitudes exactly."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"grid": {"d": 1, "K": 1.0, "h": 0.5}, "form_factor": {"profile": "gaussian", "g": 0.3},
         "nmax": [1]}
    ))
    assert cli.main(["build", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
    grid = pl.build_grid(1, 1.0, 0.5)
    ff = pl.sample_form_factor(grid, "gaussian", 0.3)
    lines = (tmp_path / "b" / "tables" / "form_factor.csv").read_text().strip().split("\n")
    assert lines[0] == "k0,v"
    assert len(lines) == grid.size + 1
    # repr round-trip: parsing the text reproduces the floats exactly
    parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, 0], grid.modes[:, 0])
    assert np.array_equal(parsed[:, 1], ff.values)
