"""Truncated boson-space operators against an independent dense oracle."""

import itertools
import json
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import polaronlab as pl
from polaronlab import CacheCorruptionError, ConfigError, DimensionCapError
from polaronlab import cli, storage

import oracles


@pytest.fixture(scope="module")
def small_setup():
    grid = pl.build_grid(1, 1.0, 1.0)  # modes: -1, +1
    ff = pl.sample_form_factor(grid, "gaussian", 0.3)
    basis = pl.enumerate_basis(grid.size, 3)
    occs = oracles.occupations(grid.size, 3)
    perm = oracles.permutation_into(occs, basis)
    return grid, ff, basis, occs, perm


def test_fock_dimension_matches_enumeration():
    for n_modes, nmax in [(1, 4), (2, 3), (3, 2), (8, 3)]:
        assert pl.fock_dimension(n_modes, nmax) == len(oracles.occupations(n_modes, nmax))


def test_basis_ordering_sector_major_lexicographic():
    basis = pl.enumerate_basis(3, 2)
    counts = basis.boson_counts()
    # sector-major: boson counts are non-decreasing along the basis
    assert np.all(np.diff(counts) >= 0)
    # within each sector the occupation tuples ascend lexicographically
    for n in range(3):
        sec = basis.sector_range(n)
        block = basis.occupations[sec.start : sec.stop]
        for a, b in zip(block, block[1:]):
            assert tuple(a) < tuple(b)
    # the vacuum is index 0
    assert np.array_equal(basis.occupations[0], np.zeros(3, dtype=basis.occupations.dtype))


def test_index_of_roundtrip():
    basis = pl.enumerate_basis(4, 3)
    for i in range(basis.dim):
        assert basis.index_of(basis.occupations[i]) == i
    with pytest.raises(ConfigError):
        basis.index_of(np.array([4, 0, 0, 0]))  # above the truncation
    with pytest.raises(ConfigError):
        basis.index_of(np.array([1, 0, 0]))  # wrong length
    with pytest.raises(ConfigError):
        basis.index_of(np.array([-1, 1, 0, 0]))  # negative entry
    for n_modes, nmax in [(4, 3), (1, 4), (3, 0), (24, 3)]:
        basis = pl.enumerate_basis(n_modes, nmax)
        assert np.array_equal(basis.rank(basis.occupations), np.arange(basis.dim))


def test_sector_layout_helpers():
    basis = pl.enumerate_basis(2, 3)
    assert basis.dim == 10
    assert basis.tail_start(0) == 0
    assert basis.tail_start(1) == 1
    assert basis.tail_start(2) == 3
    assert list(basis.sector_range(2)) == [3, 4, 5]
    counts = basis.boson_counts()
    assert np.array_equal(counts, np.array([0, 1, 1, 2, 2, 2, 3, 3, 3, 3]))


def test_permute_modes_conjugates_hamiltonian():
    """``U_g`` moves each boson of mode ``j`` to mode ``g(j)``, keeps every
    sector, and carries ``H(k)`` to ``H(g k)`` for a radial form factor."""
    grid = pl.build_grid(2, 1.0, 1.0)
    ff = pl.sample_form_factor(grid, "gaussian", 0.3)
    basis = pl.enumerate_basis(grid.size, 3)
    k = np.array([0.3, -0.2])
    ham = pl.assemble_hamiltonian(basis, grid, ff, xi=-k).matrix.toarray()
    for op, mode_perm in zip(*grid.point_group()):
        perm = basis.permute_modes(mode_perm)
        assert np.array_equal(np.sort(perm), np.arange(basis.dim))
        assert np.array_equal(basis.occupations[perm][:, mode_perm], basis.occupations)
        assert np.array_equal(basis.boson_counts()[perm], basis.boson_counts())
        moved = pl.assemble_hamiltonian(basis, grid, ff, xi=-(op @ k)).matrix.toarray()
        assert np.allclose(moved[np.ix_(perm, perm)], ham, rtol=0, atol=1e-13)


def test_invariant_sector_isometry():
    """The trivial block ``Q_0``, the flip-invariant sector, has orthonormal
    orbit-sum columns ordered by lowest state, one per sign-flip orbit;
    each ``>= n`` tail is a trailing block of its columns from
    ``tail_column(n)`` on, every flip's ``U_a`` fixes its range, and the
    identity group gives the identity."""
    grid = pl.build_grid(2, 1.0, 1.0)
    ff = pl.sample_form_factor(grid, "gaussian", 0.3)
    basis = pl.enumerate_basis(grid.size, 3)
    symmetry = pl.fock.symmetry(basis, grid, ff)
    perms = np.array([basis.permute_modes(symmetry.mode_perms[a]) for a in symmetry.flips])
    trivial = symmetry.block(0)
    dense = trivial.toarray()
    # one column per orbit; Burnside: the orbits number the mean fixed states
    fixed = [np.count_nonzero(perm == np.arange(basis.dim)) for perm in perms]
    assert trivial.shape == (basis.dim, np.mean(fixed)) == (165, 52)
    assert np.allclose(dense.T @ dense, np.eye(trivial.shape[1]), rtol=0, atol=1e-14)
    lowest = np.argmax(dense != 0, axis=0)
    assert np.all(np.diff(lowest) > 0)
    for n in range(basis.nmax + 1):
        start = basis.tail_start(n)
        column = symmetry.tail_column(n)
        assert lowest[column] == start
        assert not dense[:start, column:].any() and not dense[start:, :column].any()
    for perm in perms:
        assert np.array_equal(dense[perm], dense)
    plain = pl.fock.Symmetry(basis, np.arange(basis.n_modes)[None, :], np.zeros(1, dtype=np.int64))
    assert len(plain.characters) == 1
    block = plain.block(0)
    assert (block != sp.identity(basis.dim)).nnz == 0
    assert [plain.tail_column(n) for n in range(basis.nmax + 1)] == [
        basis.tail_start(n) for n in range(basis.nmax + 1)
    ]


#: instances (d, K, h, nmax, xi) of the symmetry tests: orders 2, 8, 2 and 48
_SYMMETRY_CASES = [
    (1, 2.0, 0.5, 3, None),
    (2, 1.0, 0.5, 2, None),
    (2, 1.0, 0.5, 2, (0.6, 0.0)),
    (3, 1.0, 1.0, 2, None),
]


def _symmetry_case(d, K, h, nmax, xi, profile="gaussian", g=0.3):
    grid = pl.build_grid(d, K, h)
    ff = pl.sample_form_factor(grid, profile, g)
    basis = pl.enumerate_basis(grid.size, nmax)
    ham = pl.assemble_hamiltonian(basis, grid, ff, xi=xi).matrix
    return ham, pl.fock.symmetry(basis, grid, ff, xi)


@pytest.mark.parametrize("n_modes", [1, 2, 3, 5])
@pytest.mark.parametrize("nmax", range(5))
def test_enumeration_matches_brute_force(n_modes, nmax):
    """The unranked basis is every occupation tuple with at most ``nmax``
    bosons, sector-major and lexicographic inside each sector, as a sort of
    the full ``itertools`` product gives it; ``rank`` inverts it."""
    tuples = [t for t in itertools.product(range(nmax + 1), repeat=n_modes) if sum(t) <= nmax]
    tuples.sort(key=lambda t: (sum(t), t))
    basis = pl.enumerate_basis(n_modes, nmax)
    assert basis.occupations.dtype == np.int32
    assert np.array_equal(basis.occupations, np.array(tuples, dtype=np.int32))
    assert np.array_equal(basis.rank(basis.occupations), np.arange(basis.dim))


@pytest.mark.parametrize("case", _SYMMETRY_CASES)
def test_permute_modes_matches_a_lookup(case):
    """Each stabilizer element's ``U_g`` equals the index, looked up in a
    dict of the basis states, of every state with its bosons moved from
    mode ``j`` to mode ``g(j)``."""
    _, symmetry = _symmetry_case(*case)
    basis = symmetry.basis
    index = {tuple(occ): i for i, occ in enumerate(basis.occupations.tolist())}
    for mode_perm in symmetry.mode_perms:
        moved = np.empty_like(basis.occupations)
        moved[:, mode_perm] = basis.occupations
        expected = [index[tuple(occ)] for occ in moved.tolist()]
        assert np.array_equal(basis.permute_modes(mode_perm), expected)


def _traced_peak(call):
    """``call()`` and the peak of its traced allocations, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - before


#: (d, K, h, nmax): a d=2 instance (dim 2925) and the paper's model at ``nmax``
#: 4 (dim 27405)
_MEMORY_CASES = [(2, 1.0, 0.5, 3), (3, 1.0, 1.0, 4)]


@pytest.mark.parametrize("d, K, h, nmax", _MEMORY_CASES)
def test_fock_layer_forms_no_mode_wide_temporary(d, K, h, nmax):
    """Enumerating the basis costs its ``(dim, M)`` int32 array and fewer
    than 8 int64 dim-vectors beside it, and a ``U_g`` costs fewer than 8
    int64 dim-vectors: no ``(dim, M)`` temporary, which at ``M`` 24 or 26
    would be 12 or 13 of them."""
    grid = pl.build_grid(d, K, h)
    basis, peak = _traced_peak(lambda: pl.enumerate_basis(grid.size, nmax))
    vector = 8 * basis.dim
    assert peak < basis.occupations.nbytes + 8 * vector
    ff = pl.sample_form_factor(grid, "froehlich", 0.1, alpha=1.0)
    symmetry = pl.fock.symmetry(basis, grid, ff)
    for mode_perm in symmetry.mode_perms[1::8]:
        _, peak = _traced_peak(lambda: basis.permute_modes(mode_perm))
        assert peak < 8 * vector


@pytest.mark.parametrize("case", _SYMMETRY_CASES)
def test_character_blocks_split_the_hamiltonian(case):
    """The sign flips are the elements that keep every coordinate's size,
    and their characters are orthogonal, the trivial one first.  The blocks
    ``Q_chi`` together are orthogonal (``Q^T Q = I``), their dimensions sum
    to the basis dimension, and ``Q^T H Q`` has no entry above
    ``1e-14 |H|`` off its diagonal blocks."""
    ham, symmetry = _symmetry_case(*case)
    d, xi = case[0], case[4]
    flips = 2 ** (d - (xi is not None))
    chars = symmetry.characters
    assert chars.shape == (flips, flips) and symmetry.flips[0] == 0
    assert np.array_equal(chars @ chars.T, flips * np.eye(flips))
    assert np.all(chars[0] == 1.0)
    grid_sizes = np.abs(pl.build_grid(d, case[1], case[2]).index)
    for g in symmetry.flips:
        assert np.array_equal(grid_sizes[symmetry.mode_perms[g]], grid_sizes)
    blocks = [symmetry.block(c) for c in range(flips)]
    dims = [q.shape[1] for q in blocks]
    assert sum(dims) == ham.shape[0] and len(dims) == flips
    q = sp.hstack(blocks).tocsr()
    assert abs(q.T @ q - sp.identity(ham.shape[0])).max() <= 1e-15
    split = (q.T @ ham @ q).toarray()
    ends = np.cumsum([0] + dims)
    for a, b in zip(ends, ends[1:]):
        split[a:b, a:b] = 0.0
    assert np.abs(split).max() <= 1e-14 * abs(ham).max()
    for q_chi, block in zip(blocks, symmetry.block_matrices(ham)):
        assert abs(block - (q_chi.T @ ham @ q_chi)).max() <= 1e-14 * abs(ham).max()
    # the free spectrum sums equal diagonal entries over each orbit: the
    # blocks keep them exactly
    free = sp.diags(ham.diagonal())
    assert np.array_equal(
        np.sort(np.concatenate([b.diagonal() for b in symmetry.block_matrices(free)])),
        np.sort(ham.diagonal()),
    )


def test_characters_need_nothing_past_numpy_1_24(monkeypatch):
    """The package declares ``numpy>=1.24``: without ``np.bitwise_count``
    (new in numpy 2.0) the d=3 sign flips still give the character table
    of ``Z_2^3``, the trivial character first, and its eight blocks."""
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    ham, symmetry = _symmetry_case(*_SYMMETRY_CASES[3])
    chars = symmetry.characters
    assert chars.shape == (8, 8) and np.all(chars[0] == 1.0)
    assert np.array_equal(chars @ chars.T, 8 * np.eye(8))
    assert sum(symmetry.block(c).shape[1] for c in range(8)) == ham.shape[0]


def test_dimension_cap():
    # sum_{n<=13} C(n+7,7) = C(21,8) = 203490 > 200000
    with pytest.raises(DimensionCapError):
        pl.enumerate_basis(8, 13)
    with pytest.raises(DimensionCapError):
        pl.enumerate_basis(2, 3, cap=9)
    assert pl.enumerate_basis(2, 3, cap=10).dim == 10


def test_ladder_operators_match_oracle(small_setup):
    grid, ff, basis, occs, perm = small_setup
    for mode in range(grid.size):
        ours = pl.annihilator(basis, mode).toarray()
        ref = oracles.aligned(oracles.dense_annihilator(occs, mode), perm, basis.dim)
        assert np.array_equal(ours, ref)
        assert np.array_equal(pl.creator(basis, mode).toarray(), ref.T)


def test_field_operator_matches_oracle(small_setup):
    grid, ff, basis, occs, perm = small_setup
    ours = pl.field_operator(basis, ff).toarray()
    ref = oracles.aligned(oracles.dense_field(occs, ff.values), perm, basis.dim)
    assert np.allclose(ours, ref, rtol=0, atol=1e-15)
    assert np.array_equal(ours, ours.T)


def test_hamiltonian_matches_oracle(small_setup):
    grid, ff, basis, occs, perm = small_setup
    ours = pl.assemble_hamiltonian(basis, grid, ff).matrix.toarray()
    ref = oracles.aligned(
        oracles.dense_hamiltonian(occs, grid.modes, ff.values), perm, basis.dim
    )
    assert np.allclose(ours, ref, rtol=0, atol=1e-13)
    # shifted fiber
    xi = np.array([0.3])
    ours_xi = pl.assemble_hamiltonian(basis, grid, ff, xi=xi).matrix.toarray()
    ref_xi = oracles.aligned(
        oracles.dense_hamiltonian(occs, grid.modes, ff.values, xi=xi), perm, basis.dim
    )
    assert np.allclose(ours_xi, ref_xi, rtol=0, atol=1e-13)


def test_hamiltonian_frozen_six_by_six():
    """Hand-computed 2-mode, 2-boson matrix with a flat profile.

    Basis order (occupation of mode -1, occupation of mode +1):
    (0,0), (0,1), (1,0), (0,2), (1,1), (2,0).
    """
    grid = pl.build_grid(1, 1.0, 1.0)
    ff = pl.sample_form_factor(grid, "constant", 0.1)
    basis = pl.enumerate_basis(grid.size, 2)
    r2 = 0.1 * np.sqrt(2.0)
    expect = np.array(
        [
            [0.0, 0.1, 0.1, 0.0, 0.0, 0.0],
            [0.1, 2.0, 0.0, r2, 0.1, 0.0],
            [0.1, 0.0, 2.0, 0.0, 0.1, r2],
            [0.0, r2, 0.0, 6.0, 0.0, 0.0],
            [0.0, 0.1, 0.1, 0.0, 2.0, 0.0],
            [0.0, 0.0, r2, 0.0, 0.0, 6.0],
        ]
    )
    ours = pl.assemble_hamiltonian(basis, grid, ff).matrix.toarray()
    assert np.array_equal(ours, expect)


def test_canonical_commutation_below_cutoff(small_setup):
    grid, ff, basis, occs, perm = small_setup
    safe = basis.boson_counts() <= basis.nmax - 1
    for k in range(grid.size):
        ak = pl.annihilator(basis, k).toarray()
        for l in range(grid.size):
            cl = pl.creator(basis, l).toarray()
            comm = ak @ cl - cl @ ak
            want = (1.0 if k == l else 0.0) * np.eye(basis.dim)
            # holds on every state strictly below the truncation (the only
            # slack is float rounding in products of square roots)
            assert np.allclose(comm[:, safe], want[:, safe], rtol=0, atol=1e-13)


def test_commutation_identity_and_top_sector_defect(small_setup):
    """H a+_k = a+_k ((P+k)^2 + field + N + 1) + v_k, exactly, on all
    sectors below the top; on the top sector the truncation defect is
    -(a+_k a(v) + v_k) applied to the top-sector part."""
    grid, ff, basis, occs, perm = small_setup
    ham = pl.assemble_hamiltonian(basis, grid, ff).matrix.toarray()
    field = pl.field_operator(basis, ff).toarray()
    counts = basis.boson_counts()
    safe = counts <= basis.nmax - 1
    top = counts == basis.nmax
    lowering_v = sum(
        ff.values[j] * pl.annihilator(basis, j).toarray() for j in range(grid.size)
    )
    for k_id in range(grid.size):
        k = grid.modes[k_id]
        ck = pl.creator(basis, k_id).toarray()
        p = basis.momentum_sums(grid) + k
        shifted = np.diag(np.sum(p * p, axis=1))
        n_op = np.diag(basis.boson_counts().astype(float))
        rhs = ck @ (shifted + field + n_op + np.eye(basis.dim)) + ff.values[k_id] * np.eye(
            basis.dim
        )
        defect = ham @ ck - rhs
        assert np.allclose(defect[:, safe], 0.0, rtol=0, atol=1e-13)
        # the defect on top-sector input states is the dropped raising flow
        expect_top = -(ck @ lowering_v + ff.values[k_id] * np.eye(basis.dim))[:, top]
        assert np.allclose(defect[:, top], expect_top, rtol=0, atol=1e-13)


def test_diagonal_operators(small_setup):
    """``N``, ``P`` and the Hamiltonian's diagonal ``(P - xi)^2 + N`` at an
    off-grid ``xi`` match the oracle; ``xi`` must live in ``R^d``."""
    grid, ff, basis, occs, perm = small_setup
    momenta = oracles.total_momenta(occs, grid.modes)
    n_ref = oracles.boson_counts(occs)
    assert np.array_equal(basis.boson_counts()[perm], n_ref)
    assert np.allclose(basis.momentum_sums(grid)[perm, 0], momenta[:, 0], rtol=0, atol=1e-15)
    ham = pl.assemble_hamiltonian(basis, grid, ff, xi=[-0.5])
    ours = ham.matrix.diagonal()[perm]
    assert np.allclose(ours, (momenta[:, 0] + 0.5) ** 2 + n_ref, rtol=0, atol=1e-14)
    with pytest.raises(ConfigError):
        pl.assemble_hamiltonian(basis, grid, ff, xi=[0.5, 0.5])  # xi must live in R^d


def test_one_boson_vector(small_setup):
    """A workspace's ``v`` holds the coupling amplitudes in the 1-boson
    sector and nothing else."""
    grid, ff, basis, occs, perm = small_setup
    vec = pl.ReductionWorkspace(grid, ff, basis).v
    assert vec.shape == (basis.dim,)
    assert vec[0] == 0.0
    for j in range(grid.size):
        occ = np.zeros(grid.size, dtype=int)
        occ[j] = 1
        assert vec[basis.index_of(occ)] == ff.values[j]
    assert np.count_nonzero(vec) == grid.size
    assert np.linalg.norm(vec) == pytest.approx(ff.norm, abs=1e-15)


def test_sector_tails(small_setup):
    grid, ff, basis, occs, perm = small_setup
    counts = np.empty(basis.dim, dtype=int)
    counts[perm] = oracles.boson_counts(occs)
    window = np.flatnonzero((counts >= 1) & (counts <= 2))
    assert np.array_equal(window, np.arange(basis.tail_start(1), basis.tail_start(3)))
    tail = np.flatnonzero(counts >= 2)
    assert np.array_equal(tail, np.arange(basis.tail_start(2), basis.dim))


def _write_operator(op, base, meta):
    """Write ``base.bin`` and ``base.json`` the way ``build`` writes operators."""
    blob, sidecar = storage.operator_payload(op, meta)
    out = cli.RunDirectory(str(base.parent), config={}, command="build")
    out.write_bytes(base.name + ".bin", blob)
    out.write_json(base.name + ".json", sidecar)
    return sidecar


def test_operator_persistence_roundtrip(tmp_path, small_setup):
    grid, ff, basis, occs, perm = small_setup
    op = pl.assemble_hamiltonian(basis, grid, ff)
    base = tmp_path / "ham_n3"
    sidecar = _write_operator(op, base, meta={"nmax": 3})
    loaded, side_loaded = storage.load_operator(base)
    assert side_loaded == sidecar
    assert loaded.dim == op.dim
    assert np.array_equal(loaded.matrix.toarray(), op.matrix.toarray())
    # serialization is canonical: same operator, same bytes
    blob1, _ = storage.operator_payload(op, meta={"nmax": 3})
    blob2, _ = storage.operator_payload(op, meta={"nmax": 3})
    assert blob1 == blob2


def test_operator_corruption_detected(tmp_path, small_setup):
    grid, ff, basis, occs, perm = small_setup
    op = pl.assemble_hamiltonian(basis, grid, ff)
    base = tmp_path / "ham"
    _write_operator(op, base, meta={})
    bin_path = base.with_suffix(".bin")
    blob = bytearray(bin_path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bin_path.write_bytes(bytes(blob))
    with pytest.raises(CacheCorruptionError):
        storage.load_operator(base)
    # a truncated blob no longer matches the sidecar's content hash
    _write_operator(op, base, meta={})
    good = bin_path.read_bytes()
    bin_path.write_bytes(good[: len(good) // 2])
    with pytest.raises(CacheCorruptionError):
        storage.load_operator(base)


def test_operator_layout_checked_behind_matching_hash(tmp_path, small_setup):
    """Blobs whose sidecar hash matches but whose layout is broken: a short
    header, a partial record, a missing record, a self-consistent blob
    whose header disagrees with the sidecar's nnz, a flag word of 0 where
    every operator is symmetric and has 1, and full-size blobs whose
    records are not canonical triplets: an index past ``dim``, a negative
    index, a zero value, two records swapped, one record repeated."""
    grid, ff, basis, occs, perm = small_setup
    op = pl.assemble_hamiltonian(basis, grid, ff)
    base = tmp_path / "ham"
    sidecar = _write_operator(op, base, meta={})
    good = base.with_suffix(".bin").read_bytes()
    header, record = 24, 24
    dim, nnz, flags = struct.unpack_from("<QQQ", good)
    fewer = struct.pack("<QQQ", dim, nnz - 1, flags) + good[header : -record]
    unflagged = struct.pack("<QQQ", dim, nnz, 0) + good[header:]

    def with_records(edit):
        records = np.frombuffer(good, dtype=[("row", "<i8"), ("col", "<i8"), ("value", "<f8")],
                                offset=header).copy()
        edit(records)
        return good[:header] + records.tobytes()

    def out_of_range(r):
        r["col"][-1] = dim + 5

    def negative(r):
        r["row"][0] = -1

    def zero(r):
        r["value"][3] = 0.0

    def swapped(r):
        r[[1, 2]] = r[[2, 1]]

    def repeated(r):
        r[2] = r[1]

    broken = [with_records(edit) for edit in (out_of_range, negative, zero, swapped, repeated)]
    for blob in (good[:10], good[: header + 5], good[:-record], fewer, unflagged, *broken):
        base.with_suffix(".bin").write_bytes(blob)
        base.with_suffix(".json").write_text(
            json.dumps({**sidecar, "sha256": storage.sha256_bytes(blob)})
        )
        with pytest.raises(CacheCorruptionError):
            storage.load_operator(base)


def _assert_canonical(dim, indptr, indices, data):
    """Canonical CSR arrays: column indices strictly ascending in every row
    and inside ``[0, dim)``, no stored zero, and the index dtype scipy picks
    itself for such arrays (int32 here)."""
    rows = np.repeat(np.arange(dim), np.diff(indptr))
    assert len(indptr) == dim + 1 and indptr[0] == 0 and indptr[-1] == len(indices) == len(data)
    assert np.all(np.diff(rows * dim + indices) > 0)
    assert np.all((indices >= 0) & (indices < dim)) and np.all(data != 0)
    picked = sp.csr_matrix(
        (data, indices.astype(np.int64), indptr.astype(np.int64)), shape=(dim, dim)
    )
    assert indices.dtype == indptr.dtype == picked.indices.dtype == np.int32


def test_index_dtype_follows_scipy():
    """int32 while the dimension and the entry count fit it, int64 past that."""
    top = np.iinfo(np.int32).max
    assert pl.fock._index_dtype(top, top) == np.int32
    assert pl.fock._index_dtype(top + 1, 10) == pl.fock._index_dtype(10, top + 1) == np.int64


@settings(max_examples=25, deadline=None)
@given(
    n_modes=st.integers(1, 5),
    nmax=st.integers(0, 4),
    amps=st.lists(
        st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False)), min_size=5, max_size=5
    ),
)
def test_ladder_and_field_match_oracle_property(n_modes, nmax, amps):
    """The field operator, zero amplitudes included, and every annihilator
    and creator are the dense oracle's matrices in canonical CSR form."""
    basis = pl.enumerate_basis(n_modes, nmax)
    occs = oracles.occupations(n_modes, nmax)
    perm = oracles.permutation_into(occs, basis)
    values = np.array(amps[:n_modes])
    ff = pl.FormFactor(profile="constant", g=1.0, alpha=0.0, values=values)
    field = pl.field_operator(basis, ff)
    _assert_canonical(basis.dim, field.indptr, field.indices, field.data)
    ref = oracles.aligned(oracles.dense_field(occs, values), perm, basis.dim)
    assert np.array_equal(field.toarray(), ref)
    for mode in range(n_modes):
        ref = oracles.aligned(oracles.dense_annihilator(occs, mode), perm, basis.dim)
        for ladder, want in ((pl.annihilator(basis, mode), ref), (pl.creator(basis, mode), ref.T)):
            _assert_canonical(basis.dim, ladder.indptr, ladder.indices, ladder.data)
            assert np.array_equal(ladder.toarray(), want)
    with pytest.raises(ConfigError):
        pl.creator(basis, n_modes)


@settings(max_examples=25, deadline=None)
@given(
    n_modes=st.integers(1, 5),
    nmax=st.integers(0, 4),
    amps=st.lists(
        st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False)), min_size=5, max_size=5
    ),
    xi=st.floats(-2.0, 2.0, allow_nan=False),
)
def test_hamiltonian_triplets_canonical_property(tmp_path_factory, n_modes, nmax, amps, xi):
    """The Hamiltonian's CSR arrays are canonical, give the dense oracle's
    matrix, which ``matrix`` wraps without a copy, and survive ``storage``
    unchanged."""
    full = pl.build_grid(1, 1.5, 0.5)  # six modes: -1.5 .. 1.5 without 0
    grid = pl.MomentumGrid(d=1, K=full.K, h=full.h, index=full.index[:n_modes])
    basis = pl.enumerate_basis(n_modes, nmax)
    occs = oracles.occupations(n_modes, nmax)
    perm = oracles.permutation_into(occs, basis)
    values = np.array(amps[:n_modes])
    ff = pl.FormFactor(profile="constant", g=1.0, alpha=0.0, values=values)
    op = pl.assemble_hamiltonian(basis, grid, ff, xi=[xi])
    _assert_canonical(op.dim, op.indptr, op.indices, op.data)
    for name in ("indptr", "indices", "data"):  # the same buffer, not a copy
        wrapped, own = getattr(op.matrix, name), getattr(op, name)
        assert wrapped.__array_interface__["data"] == own.__array_interface__["data"]
    dense = oracles.dense_hamiltonian(occs, grid.modes, values, xi=[xi])
    assert np.array_equal(op.matrix.toarray(), oracles.aligned(dense, perm, basis.dim))
    base = tmp_path_factory.mktemp("triplets") / "ham"
    _write_operator(op, base, meta={})
    loaded, _ = storage.load_operator(base)
    assert loaded.dim == op.dim
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(loaded, name), getattr(op, name))
        assert getattr(loaded, name).dtype == getattr(op, name).dtype


def _csr_bytes(mat):
    return mat.indptr.nbytes + mat.indices.nbytes + mat.data.nbytes


def test_assembly_memory_on_the_papers_grid():
    """On the paper's model at ``nmax`` 4 (d=3, K=h=1, dim 27,405) the
    traced peaks of ``assemble_hamiltonian`` and ``field_operator`` stay
    below twice their own CSR arrays (6.4 times, when the entries went
    through sorted triplets), and ``momentum_sums`` below 3 times its
    ``(dim, d)`` output: no ``(dim, M)`` float64 copy (9.7 times it)."""
    grid = pl.build_grid(3, 1.0, 1.0)
    ff = pl.sample_form_factor(grid, "froehlich", 0.1, alpha=1.0)
    basis = pl.enumerate_basis(grid.size, 4)
    assert basis.dim == 27405
    ham, peak = _traced_peak(lambda: pl.assemble_hamiltonian(basis, grid, ff))
    assert peak < 2 * _csr_bytes(ham)
    field, peak = _traced_peak(lambda: pl.field_operator(basis, ff))
    assert peak < 2 * _csr_bytes(field)
    momenta, peak = _traced_peak(lambda: basis.momentum_sums(grid))
    assert momenta.shape == (basis.dim, 3) and peak < 3 * momenta.nbytes


def test_momentum_sums_round_off():
    """``momentum_sums`` adds one mode at a time.  On dyadic grids that is
    the matrix product bit for bit; on d=1, K=2.1, h=0.3 at ``nmax`` 4 it
    may differ by round-off, bounded by ``4 nmax K`` ulps of 1 (8.9e-16
    seen, against a bound of 7.5e-15)."""
    for d, K, h, nmax in [(1, 2.0, 0.25, 3), (2, 1.0, 0.5, 3), (3, 1.0, 1.0, 3)]:
        grid = pl.build_grid(d, K, h)
        basis = pl.enumerate_basis(grid.size, nmax)
        product = basis.occupations.astype(float) @ grid.modes
        assert np.array_equal(basis.momentum_sums(grid), product)
    grid = pl.build_grid(1, 2.1, 0.3)
    basis = pl.enumerate_basis(grid.size, 4)
    product = basis.occupations.astype(float) @ grid.modes
    bound = 4 * 4 * 2.1 * np.finfo(float).eps
    assert np.abs(basis.momentum_sums(grid) - product).max() <= bound
