"""Independent dense reference implementations used only by tests.

Everything here is built from first principles with itertools and
numpy.linalg, deliberately sharing no enumeration or assembly code with
the package: occupation states are generated as multisets, ladder
operators are filled entry by entry from their defining rule, and
resolvents are dense inverses of masked blocks.  Tests align the two
bases by occupation content before comparing matrices.
"""

import itertools

import numpy as np


def occupations(n_modes, nmax):
    """All occupation tuples with at most ``nmax`` quanta."""
    out = []
    for total in range(nmax + 1):
        for combo in itertools.combinations_with_replacement(range(n_modes), total):
            occ = [0] * n_modes
            for j in combo:
                occ[j] += 1
            out.append(tuple(occ))
    return out


def dense_annihilator(occs, mode):
    index = {occ: i for i, occ in enumerate(occs)}
    dim = len(occs)
    mat = np.zeros((dim, dim))
    for col, occ in enumerate(occs):
        n = occ[mode]
        if n == 0:
            continue
        lowered = list(occ)
        lowered[mode] -= 1
        row = index.get(tuple(lowered))
        if row is not None:
            mat[row, col] = np.sqrt(n)
    return mat


def dense_creator(occs, mode):
    return dense_annihilator(occs, mode).T


def dense_field(occs, v):
    dim = len(occs)
    phi = np.zeros((dim, dim))
    for mode, amp in enumerate(v):
        a = dense_annihilator(occs, mode)
        phi += amp * (a + a.T)
    return phi


def dense_raising(occs, v):
    """Raising half of ``dense_field``: the entries from a state with ``n``
    quanta to one with ``n + 1``, picked out by boson count."""
    counts = boson_counts(occs)
    return np.where(counts[:, None] == counts[None, :] + 1, dense_field(occs, v), 0.0)


def total_momenta(occs, modes):
    occ_arr = np.asarray(occs, dtype=float)
    return occ_arr @ np.asarray(modes, dtype=float)


def dense_hamiltonian(occs, modes, v, xi=None, shift=None):
    """Dense ``(P + shift - xi)^2 + field + number`` on the oracle basis."""
    modes = np.asarray(modes, dtype=float)
    d = modes.shape[1]
    xi = np.zeros(d) if xi is None else np.asarray(xi, dtype=float)
    shift = np.zeros(d) if shift is None else np.asarray(shift, dtype=float)
    p = total_momenta(occs, modes) + (shift - xi)[None, :]
    kinetic = np.sum(p * p, axis=1)
    number = np.asarray(occs, dtype=float).sum(axis=1)
    return np.diag(kinetic + number) + dense_field(occs, v)


def boson_counts(occs):
    return np.array([sum(o) for o in occs])


def tail_indices(occs, n):
    counts = boson_counts(occs)
    return np.where(counts >= n)[0]


def dense_masked_inverse(mat, indices, offset=0.0):
    """Inverse of ``mat + offset`` on the rows/cols in ``indices``,
    embedded back into the full dimension (zero elsewhere)."""
    sub = mat[np.ix_(indices, indices)] + offset * np.eye(len(indices))
    inv = np.linalg.inv(sub)
    out = np.zeros_like(mat)
    out[np.ix_(indices, indices)] = inv
    return out


def permutation_into(occs, basis):
    """Index in the package basis of each oracle occupation state."""
    return np.array([basis.index_of(np.array(occ, dtype=int)) for occ in occs])


def aligned(dense_oracle_matrix, perm, dim):
    """Re-order an oracle matrix into package-basis indexing."""
    out = np.zeros((dim, dim))
    out[np.ix_(perm, perm)] = dense_oracle_matrix
    return out


def eliminated_rows(mat, ratio=(1.0 + 17.0**0.5) / 8.0):
    """The rows a Schur-complement factor eliminates by their own diagonal,
    by the greedy rule read literally off a dense symmetric ``mat`` (nested
    lists): walk the rows from the last to the first, and take a row when
    its diagonal is nonzero and at least ``ratio`` (Bunch-Kaufman's 1x1
    pivot bound) times each of its other entries in size, and no higher row
    it is coupled to was taken."""
    dim = len(mat)
    taken = [False] * dim
    for i in reversed(range(dim)):
        largest = max((abs(mat[i][j]) for j in range(dim) if j != i), default=0.0)
        pivot = mat[i][i] != 0.0 and abs(mat[i][i]) >= ratio * largest
        taken[i] = pivot and not any(taken[j] for j in range(i + 1, dim) if mat[i][j] != 0.0)
    return np.array(taken, dtype=bool)
