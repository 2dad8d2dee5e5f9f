"""Linear-algebra kernels: the digit codec, the package's one conversion
between element indices and base-p digit planes and one exact float
product mod p; batched rank sweeps; small dense solvers.

Batch routines take numpy int64 arrays of element indices, turn every
matrix into its GF(p)-matrix and rank the whole batch with one lockstep
elimination mod p; they read no field tables and never build them.
sweep_slices cuts a space into the slices the orbit filter works in, and
orbit_batches regroups the filtered representatives into the batches the
sweeps rank.
Scalar routines work on lists of ints, with or without the tables. The modp_*
routines are plain integer elimination mod a prime, used where systems
live over GF(p) rather than the big field.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BadParams

# the largest batch any sweep hands the kernel at once
SLICE = 1 << 16
# orbit representatives in the first batch of a sweep (orbit_batches), and
# in each later one: the kernel's time per matrix is least near 2^13
# matrices at e*n = 8 to 16, and 1.5-1.8 times that at SLICE
FIRST_BATCH = 1 << 8
BATCH = 1 << 13


# ---------------------------------------------------------------------------
# the digit codec


def digit_planes(vals, p: int, en: int, dtype=np.float32) -> np.ndarray:
    """Base-p digits of the element indices vals, lowest digit first, by
    integer division: out[d] holds digit d of every entry, in vals' shape."""
    rest = np.asarray(vals, dtype=np.int64)
    out = np.empty((en,) + rest.shape, dtype=dtype)
    for d in range(en):
        quot = rest // p
        out[d] = rest - quot * p
        rest = quot
    return out


def plane_indices(planes: np.ndarray, p: int, dtype=np.int64) -> np.ndarray:
    """The element indices whose digit planes, lowest first, are planes[d],
    integral in any dtype: the inverse of digit_planes. They are computed
    in dtype, which must hold every index."""
    out = np.array(planes[-1], dtype=dtype)
    for plane in planes[-2::-1]:
        out *= p
        np.add(out, plane, out=out, casting="unsafe", dtype=dtype)
    return out


def mod_p_product(A: np.ndarray, planes: np.ndarray, p: int) -> np.ndarray:
    """A @ planes mod p, as floats, A and planes holding residues 0..p-1.

    The product is taken in float32 when K*p^2 < 2^24 (K = A.shape[-1]),
    else in float64, and reduced by X - p*floor(X/p). That is exact while
    K*p^2 < 2^b, b = 24 in float32 and 53 in float64: every entry is an
    integer X <= K*(p-1)^2 < 2^b, exact in the float type; the correctly
    rounded X/p is off by at most X/p * 2^-b < 1/p, while a non-integer X/p
    lies at least 1/p below the next integer, so the floor is the true
    floor and the difference the true residue."""
    dtype = np.float32 if A.shape[-1] * p * p < 1 << 24 else np.float64
    X = np.asarray(A).astype(dtype) @ planes.astype(dtype, copy=False)
    Y = X / p
    np.floor(Y, out=Y)
    Y *= p
    X -= Y
    return X


# ---------------------------------------------------------------------------
# batched elimination mod p
#
# A q-polynomial sum_i c_i x^(q^i) acts on GF(q^n) = GF(p)^(e*n) through the
# matrix sum_{i,d} digit_d(c_i) * M_(p^d) * Phi^i, and a field element a
# through M_a = sum_d digit_d(a) * M_(p^d); FieldCtx.x_powers holds the
# M_(p^d) and FieldCtx.action_tensor the n*e*n products. Every batched
# rank is the GF(p) rank of such matrices, divided by e (Dickson ranks) or
# by e*n (field matrices).


@functools.lru_cache(maxsize=None)
def _inverses(p: int) -> np.ndarray:
    """inv[a] = a^-1 mod p, with inv[0] = 0."""
    inv = np.zeros(p, dtype=_residue_dtype(p))
    inv[1:] = [pow(a, -1, p) for a in range(1, p)]
    return inv


def _residue_dtype(p: int):
    """The narrowest integer type that holds a - b*c for residues a, b, c."""
    if p * p <= np.iinfo(np.int16).max:
        return np.int16
    if p * p <= np.iinfo(np.int32).max:
        return np.int32
    raise BadParams(f"batched ranks need p below 46341, got p = {p}")


def _modp_ranks(A: np.ndarray, p: int) -> np.ndarray:
    """Ranks mod p of a stack A[i, j, b] of residues; A is overwritten.

    Lockstep forward elimination. Read A[:, j, b] as the vectors of
    matrix b: step i picks in every matrix at once the first vector with
    a nonzero coordinate i as the pivot, and subtracts multiples of it
    from every vector to clear their coordinate i, touching only the
    coordinates after i. The pivot's own multiplier is 1, so it becomes
    zero after i and is never picked again; vectors picked before are
    zero at i and get multiplier 0. Rank is invariant under
    transposition, so either index may be the row.

    The pivot is found without leaving the batch axis: every vector that
    is nonzero at i weighs nJ - j, the others 0, so piv = nJ - max over j
    is the first such j, and nJ when matrix b has no pivot at step i. The
    one-hot mask sel = (j == piv), all False without a pivot, reads the
    pivot's value and vector as sums of products with sel. A matrix with
    no pivot thus gets zero multipliers (inv[0] = 0), so no matrix leaves
    the batch.

    The batch stays on the last, contiguous axis so that every operation
    of a step, the reductions over j included, runs elementwise along
    rows of B entries, which numpy vectorizes; an argmax over the strided
    j axis and gathers at (piv[b], b) do not.
    """
    nI, nJ, B = A.shape
    inv = _inverses(p)
    rank = np.zeros(B, dtype=np.int64)
    if nJ == 0:
        return rank
    j = np.arange(nJ, dtype=np.min_scalar_type(nJ))[:, None]
    weight = nJ - j
    for i in range(nI):
        row = A[i]
        piv = nJ - ((row != 0) * weight).max(axis=0)
        rank += piv < nJ
        if i + 1 == nI:
            break
        sel = j == piv
        fac = _reduce(row * inv[(row * sel).sum(0, dtype=A.dtype)], p)
        rest = A[i + 1:]
        rest -= (rest * sel).sum(1, dtype=A.dtype)[:, None, :] * fac[None]
        _reduce(rest, p)
    return rank


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place; floor division by a constant vectorizes where % does not."""
    x -= x // p * p
    return x


def _contract(T: np.ndarray, planes: np.ndarray, p: int) -> np.ndarray:
    """T @ planes mod p in the kernel's residue type, 16 rows at a time so
    the float temporaries stay small."""
    out = np.empty((len(T), planes.shape[1]), dtype=_residue_dtype(p))
    for k in range(0, len(T), 16):
        out[k:k + 16] = mod_p_product(T[k:k + 16], planes, p)
    return out


def apply_matrix(ctx, A: np.ndarray, xs) -> np.ndarray:
    """Indices of A x for every x in xs, A being an (e*n, e*n) GF(p)-matrix
    on digit vectors, by A on the digit planes of xs, SLICE elements at a
    time. Reads no tables."""
    xs = np.asarray(xs, dtype=np.int64)
    out = np.empty(xs.size, dtype=np.int64)
    for lo in range(0, xs.size, SLICE):
        planes = digit_planes(xs.ravel()[lo:lo + SLICE], ctx.p, ctx.en)
        out[lo:lo + SLICE] = plane_indices(mod_p_product(A, planes, ctx.p), ctx.p)
    return out.reshape(xs.shape)


def span_indices(A: np.ndarray, p: int) -> np.ndarray:
    """Indices of A c for every c in GF(p)^k in counting order, c_0 least
    significant, A being an (e*n, k) matrix mod p: a kernel ascending when
    A is the transpose of a modp_nullspace basis."""
    k = A.shape[1]
    return plane_indices(mod_p_product(A, digit_planes(np.arange(p ** k), p, k), p), p)


def qpoly_matrices(ctx, coeff_cols: np.ndarray) -> np.ndarray:
    """GF(p)-matrices of a batch of q-polynomials, as an (e*n, e*n, B)
    stack of residues in the kernel's type.

    coeff_cols has shape (n, B); column b holds the coefficients of the
    b-th polynomial. Slice [:, :, b] acts on column digit vectors."""
    p, en = ctx.p, ctx.en
    n, B = coeff_cols.shape
    # column d*n + i is slot i*e*n + d, in the planes' (digit, slot) order
    T = ctx.action_tensor().reshape(n, en, en * en).transpose(2, 1, 0)
    planes = digit_planes(coeff_cols, p, en).reshape(en * n, B)
    return _contract(T.reshape(en * en, en * n), planes, p).reshape(en, en, B)


def digit_contract(ctx, T: np.ndarray, elems: np.ndarray) -> np.ndarray:
    """sum_d digit_d(a) * T[d] mod p for every a in elems, d running over
    the e*n base-p digits: an array of shape T.shape[1:] + elems.shape of
    residues in the kernel's type. Every map that is GF(p)-linear in a,
    such as a -> M_a, has such a tensor T, so one contraction of the digit
    planes of a batch gives all its matrices."""
    p, en = ctx.p, ctx.en
    T = np.asarray(T)
    out = _contract(T.reshape(en, -1).T, digit_planes(np.ravel(elems), p, en), p)
    return out.reshape(T.shape[1:] + np.shape(elems))


def mult_tensor(ctx) -> np.ndarray:
    """(e*n, e*n, e*n) read-only stack of the matrices M_(p^d) of
    y -> x^d * y, so that M_a is the digit contraction of a against it."""
    return ctx.x_powers


def batch_rank(ctx, mats: np.ndarray) -> np.ndarray:
    """Ranks over the field of a (B, r, c) stack of matrices: each entry a
    becomes its block M_a, and the GF(p) rank is e*n times the field rank."""
    p, en = ctx.p, ctx.en
    B, r, c = np.shape(mats)
    # blocks[ri, ci, rb, cb, b] = M_a[ri, ci] for a = mats[b, rb, cb]
    blocks = digit_contract(ctx, mult_tensor(ctx), np.transpose(mats, (1, 2, 0)))
    A = blocks.transpose(2, 0, 3, 1, 4).reshape(r * en, c * en, B)
    return _modp_ranks(A, p) // en


def shift_dickson_ranks(ctx, A: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Ranks as GF(q)-linear maps of f + m*id for every m in ms, where A is
    f's (e*n, e*n) GF(p)-matrix: each matrix is A + M_m, so only the e*n
    digit planes of m are contracted."""
    mats = digit_contract(ctx, mult_tensor(ctx), ms)
    mats += np.asarray(A)[:, :, None].astype(mats.dtype)
    return _modp_ranks(_reduce(mats, ctx.p), ctx.p) // ctx.e


def digit_dickson_ranks(ctx, T: np.ndarray, elems: np.ndarray) -> np.ndarray:
    """Ranks as GF(q)-linear maps of the matrices sum_d digit_d(a) * T[d]
    for every a in elems, T being an (e*n, e*n, e*n) tensor."""
    return _modp_ranks(digit_contract(ctx, T, elems), ctx.p) // ctx.e


def batch_dickson_rank(ctx, coeff_cols: np.ndarray) -> np.ndarray:
    """Ranks of the Dickson matrices of a batch of q-polynomials, that is
    their ranks as GF(q)-linear maps.

    coeff_cols has shape (n, B): column b holds the coefficient vector of
    the b-th polynomial. Works in either field mode.
    """
    return _modp_ranks(qpoly_matrices(ctx, coeff_cols), ctx.p) // ctx.e


def sweep_slices(total: int):
    """Ascending (lo, hi) slices covering range(total), the units in which
    FieldCtx.frobenius_orbits filters a space and keeps the result: 2^8
    long at first, doubling up to SLICE, so a sweep that stops early
    filters little. The sweeps rank the representatives in batches by
    count (orbit_batches), not by slice, as a slice keeps only about one
    entry per orbit."""
    lo, size = 0, 1 << 8
    while lo < total:
        hi = min(lo + size, total)
        yield lo, hi
        lo, size = hi, min(2 * size, SLICE)


def orbit_batches(slices):
    """Regroup the ascending (reps, sizes) slices of
    FieldCtx.frobenius_orbits into batches by count: FIRST_BATCH
    representatives, then BATCH at a time, the last batch holding what is
    left. The batches are ascending, disjoint and cover the stream. A
    slice is read only when the batch being filled needs it, so a sweep
    that stops early reads only the slices that its batches took entries
    from.

    The filter leaves about one entry in e*n/d of a slice, and fewer with
    a larger group, so the slices alone would hand the kernel small calls,
    whose cost is mostly per call. The first batch is small for sweeps
    that stop at once; the later ones are the size at which the kernel
    ranks fastest."""
    want, reps, sizes, have = FIRST_BATCH, [], [], 0
    for r, s in slices:
        reps.append(r)
        sizes.append(s)
        have += len(r)
        while have >= want:
            r, s = np.concatenate(reps), np.concatenate(sizes)
            yield r[:want], s[:want]
            reps, sizes, have, want = [r[want:]], [s[want:]], have - want, BATCH
    if have:
        yield np.concatenate(reps), np.concatenate(sizes)


# ---------------------------------------------------------------------------
# scalar elimination over the field (small systems)


def field_rref(ctx, rows):
    """Reduced row echelon form over the field; returns (rows, pivot_cols)
    with zero rows dropped. Input rows are not modified."""
    R = [list(r) for r in rows]
    if not R:
        return [], []
    ncols = len(R[0])
    pivots = []
    r = 0
    for j in range(ncols):
        piv = next((i for i in range(r, len(R)) if R[i][j] != 0), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = ctx.inv(R[r][j])
        R[r] = [ctx.mul(inv, v) for v in R[r]]
        for i in range(len(R)):
            if i != r and R[i][j] != 0:
                c = R[i][j]
                R[i] = [ctx.sub(v, ctx.mul(c, w)) for v, w in zip(R[i], R[r])]
        pivots.append(j)
        r += 1
        if r == len(R):
            break
    return R[:r], pivots


def field_rank(ctx, rows) -> int:
    return len(field_rref(ctx, rows)[0])


def field_nullspace(ctx, rows):
    """Basis (list of vectors) of {v : sum_j rows[i][j] * v[j] = 0 for all i},
    in reduced form with deterministic free-column ordering."""
    if not rows:
        return []
    ncols = len(rows[0])
    R, pivots = field_rref(ctx, rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, pj in enumerate(pivots):
            v[pj] = ctx.neg(R[i][f])
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# elimination mod a prime (numpy, used for GF(p)-linear systems)


def modp_rref(mat: np.ndarray, p: int):
    """The reduced row echelon form of mat mod p: (rows, pivot_cols), rows
    an int64 array of the nonzero rows in pivot order. The form is unique,
    so neither the choice of pivot rows nor their order in mat changes it;
    a 0-row input gives a 0-row result and no pivots. The input is not
    modified.

    Gauss-Jordan without row swaps: at column j the first free row that is
    nonzero there becomes the pivot row. Every free row is zero before j,
    so only the columns from j onward are scaled, and only the rows that
    are nonzero at j are updated there."""
    R = np.asarray(mat, dtype=np.int64) % p
    nrows, ncols = R.shape
    free = np.ones(nrows, dtype=bool)
    rows, pivots = [], []
    for j in range(ncols):
        if len(rows) == nrows:
            break
        nz = R[:, j] != 0
        cand = (nz & free).nonzero()[0]
        if not cand.size:
            continue
        r = cand[0]
        row = R[r, j:]
        if row[0] != 1:
            row *= pow(int(row[0]), p - 2, p)
            row %= p
        nz[r] = free[r] = False
        others = nz.nonzero()[0]
        if others.size:
            sub = R[others, j:]
            sub -= sub[:, :1] * row
            sub %= p
            R[others, j:] = sub
        rows.append(r)
        pivots.append(j)
    return R[rows], pivots


def modp_power(A: np.ndarray, m: int, p: int) -> np.ndarray:
    """A^m mod p by square and multiply, A a square int64 matrix of
    residues (exact while its size times p^2 stays below 2^63)."""
    acc = np.eye(len(A), dtype=np.int64)
    while m:
        if m & 1:
            acc = acc @ A % p
        m >>= 1
        if m:
            A = A @ A % p
    return acc


def modp_nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis rows of {v : mat v = 0 mod p}, one per free column f_k in
    ascending order; row k is 1 at f_k and 0 at the other free columns and
    beyond f_k. For the kernel of a GF(p)-matrix on digit vectors, row 0 is
    thus the smallest nonzero element, and span_indices(basis.T, p) lists
    the kernel ascending."""
    mat = np.atleast_2d(mat)
    R, pivots = modp_rref(mat, p)
    free = [j for j in range(mat.shape[1]) if j not in pivots]
    basis = np.zeros((len(free), mat.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -R[:, free].T % p
    return basis
