import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatpoly.errors import BadParams
from scatpoly.fields import build_field
from scatpoly.linalg import (
    _modp_ranks,
    _residue_dtype,
    batch_dickson_rank,
    batch_rank,
    digit_planes,
    field_nullspace,
    field_rank,
    field_rref,
    mod_p_product,
    modp_nullspace,
    modp_rref,
    orbit_batches,
    plane_indices,
    span_indices,
    sweep_slices,
)
from scatpoly import linalg
from scatpoly.linpoly import LinPoly
from scatpoly.scattered import (build_psi, is_scattered_ranks, nonscattered_witness_search,
                                shift_ranks)

PROPERTY = settings(max_examples=30)


def _elements(ctx):
    """Field elements, with 0 and 1 drawn often so sparse and low-rank
    inputs come up."""
    return st.one_of(st.just(0), st.just(1), st.integers(0, ctx.order - 1))


def _random_rows(ctx, rng, shape):
    return [[int(x) for x in row] for row in rng.integers(0, ctx.order, size=shape)]


def test_field_rref_canonical(ctx33):
    rng = np.random.default_rng(1)
    rows = _random_rows(ctx33, rng, (4, 6))
    red, piv = field_rref(ctx33, rows)
    # idempotent, pivots are leading ones with zeros above
    again, piv2 = field_rref(ctx33, red)
    assert again == red and piv2 == piv
    for i, c in enumerate(piv):
        assert red[i][c] == 1
        assert all(red[j][c] == 0 for j in range(len(red)) if j != i)
    # scaling a row by a nonzero constant does not change the canonical form
    scaled = [[ctx33.mul(5, x) for x in rows[0]]] + rows[1:]
    red2, _ = field_rref(ctx33, scaled)
    assert red2 == red


def test_field_rank_drops_dependent_rows(ctx33):
    rng = np.random.default_rng(2)
    rows = _random_rows(ctx33, rng, (3, 5))
    dup = rows + [[ctx33.mul(7, x) for x in rows[1]]]
    assert field_rank(ctx33, dup) == field_rank(ctx33, rows)
    zero = [[0] * 5]
    assert field_rank(ctx33, zero) == 0


def test_field_nullspace_annihilates(ctx53):
    rng = np.random.default_rng(3)
    rows = _random_rows(ctx53, rng, (3, 6))
    basis = field_nullspace(ctx53, rows)
    assert len(basis) == 6 - field_rank(ctx53, rows)
    for vec in basis:
        for row in rows:
            acc = 0
            for a, b in zip(row, vec):
                acc = ctx53.add(acc, ctx53.mul(a, b))
            assert acc == 0
    assert field_rank(ctx53, basis) == len(basis)


def test_batch_rank_matches_field_rank(ctx33):
    rng = np.random.default_rng(4)
    mats = rng.integers(0, ctx33.order, size=(10, 4, 4))
    # plant a singular matrix
    mats[3, 2] = mats[3, 0]
    got = batch_rank(ctx33, mats)
    for k in range(10):
        rows = [[int(x) for x in row] for row in mats[k]]
        assert got[k] == field_rank(ctx33, rows)


def test_batch_dickson_rank_matches_linpoly_rank(ctx33):
    rng = np.random.default_rng(5)
    coeffs = rng.integers(0, ctx33.order, size=(ctx33.n, 12))
    got = batch_dickson_rank(ctx33, coeffs)
    for j in range(12):
        f = LinPoly(ctx33, [int(c) for c in coeffs[:, j]])
        assert got[j] == f.rank()


@pytest.mark.parametrize("pet", [(3, 1, 3), (5, 1, 3), (3, 2, 3)])
@PROPERTY
@given(data=st.data())
def test_batch_dickson_rank_matches_oracle_on_planted_kernels(pet, data):
    ctx = build_field(*pet)
    polys = []
    for _ in range(data.draw(st.integers(1, 4))):
        f = LinPoly(ctx, data.draw(st.lists(_elements(ctx), min_size=ctx.n,
                                            max_size=ctx.n)))
        x = data.draw(st.integers(1, ctx.order - 1))
        # f + m*id with m = -f(x)/x maps x to 0, so its rank is below n
        m = ctx.neg(ctx.div(f(x), x))
        polys += [f, f + LinPoly.monomial(ctx, m, 0)]
    cols = np.array([g.coeffs for g in polys], dtype=np.int64).T
    got = batch_dickson_rank(ctx, cols)
    assert got.tolist() == [g.rank() for g in polys]
    assert (got[1::2] < ctx.n).all()


@PROPERTY
@given(data=st.data())
def test_batch_rank_matches_field_rank_non_square(data):
    ctx = build_field(5, 1, 3)
    r, c = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    mat = st.lists(st.lists(_elements(ctx), min_size=c, max_size=c),
                   min_size=r, max_size=r)
    mats = data.draw(st.lists(mat, min_size=1, max_size=5)) + [[[0] * c] * r]
    got = batch_rank(ctx, np.array(mats, dtype=np.int64))
    assert got.tolist() == [field_rank(ctx, m) for m in mats]
    assert got[-1] == 0


@PROPERTY
@given(data=st.data())
def test_batch_dickson_rank_needs_no_tables(bare_field, data):
    pet = data.draw(st.sampled_from([(3, 1, 3), (3, 2, 3)]))
    ctx, bare = build_field(*pet), bare_field(*pet)
    assert bare.modulus == ctx.modulus
    f = build_psi(ctx, data.draw(st.integers(1, ctx.n - 1)))
    ms = data.draw(st.lists(st.integers(0, ctx.order - 1), min_size=1, max_size=40))
    cols = np.tile(np.array(f.coeffs, dtype=np.int64)[:, None], (1, len(ms)))
    cols[0] = [ctx.add(f.coeffs[0], m) for m in ms]
    assert np.array_equal(batch_dickson_rank(bare, cols), batch_dickson_rank(ctx, cols))
    assert not bare.has_tables


def test_batch_dickson_rank_int32_residues():
    # p^2 > 2^15, so the kernel stores int32; p^6 needs no tables
    ctx = build_field(191, 1, 3)
    assert _residue_dtype(ctx.p) is np.int32 and _residue_dtype(181) is np.int16
    rng = np.random.default_rng(6)
    polys = []
    for _ in range(3):
        f = LinPoly(ctx, [int(c) for c in rng.integers(0, ctx.order, size=ctx.n)])
        x = int(rng.integers(1, ctx.order))
        polys += [f, f + LinPoly.monomial(ctx, ctx.neg(ctx.div(f(x), x)), 0)]
    cols = np.array([g.coeffs for g in polys], dtype=np.int64).T
    assert batch_dickson_rank(ctx, cols).tolist() == [g.rank() for g in polys]
    # beyond this p the products a - b*c of residues overflow int32
    with pytest.raises(BadParams):
        _residue_dtype(46349)


def test_shift_ranks_same_bytes_as_one_kernel_call(ctx34):
    f = build_psi(ctx34, 2)
    cols = np.tile(np.array(f.coeffs, dtype=np.int64)[:, None], (1, ctx34.order))
    cols[0] = [ctx34.add(f.coeffs[0], m) for m in range(ctx34.order)]
    one = batch_dickson_rank(ctx34, cols)
    assert shift_ranks(f).tobytes() == one.tobytes()


def test_shift_ranks_empty_batch(ctx33):
    out = shift_ranks(build_psi(ctx33, 1), np.zeros(0, dtype=np.int64))
    assert out.dtype == np.int64 and out.shape == (0,)


def test_batch_dickson_rank_empty_batch(ctx33):
    out = batch_dickson_rank(ctx33, np.zeros((ctx33.n, 0), dtype=np.int64))
    assert out.dtype == np.int64 and out.shape == (0,)


def test_sweep_slices_ascending_and_doubling():
    slices = list(sweep_slices(300_000))
    assert slices[0] == (0, 256) and slices[-1][1] == 300_000
    assert all(a[1] == b[0] for a, b in zip(slices, slices[1:]))
    sizes = [hi - lo for lo, hi in slices[:-1]]
    assert sizes[:9] == [256 << i for i in range(9)] and set(sizes[8:]) == {1 << 16}
    assert list(sweep_slices(100)) == [(0, 100)] and list(sweep_slices(0)) == []


def test_orbit_batches_regroup_by_count():
    # ascending slices of uneven counts, the empty one included: the
    # batches are FIRST_BATCH, then BATCH at a time, at most SLICE,
    # ascending, disjoint and together the whole stream
    rng = np.random.default_rng(5)
    counts = [0, 3, 200, 0, 1500, 9000, 70000, 40000, 123]
    reps, lo = [], 0
    for c in counts:
        reps.append(np.sort(rng.choice(np.arange(lo, lo + 4 * c + 1), size=c, replace=False)))
        lo += 4 * c + 1
    slices = [(r, r % 7) for r in reps]
    batches = list(orbit_batches(iter(slices)))
    sizes = [len(b) for b, _ in batches]
    want = [linalg.FIRST_BATCH]
    while sum(want) < sum(counts):
        want.append(linalg.BATCH)
    want[-1] -= sum(want) - sum(counts)
    assert sizes == want and max(sizes) <= linalg.SLICE
    got = np.concatenate([b for b, _ in batches])
    assert np.array_equal(got, np.concatenate(reps)) and (np.diff(got) > 0).all()
    assert np.array_equal(np.concatenate([s for _, s in batches]), got % 7)
    assert list(orbit_batches(iter([]))) == []


def test_orbit_batches_read_only_what_the_first_batch_needs():
    # a consumer that stops after the first batch has pulled only the
    # slices up to the one that completes it
    pulled = []

    def slices():
        for k in range(100):
            pulled.append(k)
            yield np.arange(10 * k, 10 * k + 10), np.ones(10, dtype=np.int8)
    first, _ = next(orbit_batches(slices()))
    assert np.array_equal(first, np.arange(linalg.FIRST_BATCH))
    assert pulled == list(range(-(-linalg.FIRST_BATCH // 10)))


def test_sweep_stopping_in_its_first_batch_fills_only_the_slices_it_read(bare_field):
    # psi_2 at (5, 3) fails at once: the rank checker and the witness
    # search keep exactly the slices that their first batch took
    # representatives from, and the rest of the space stays unfiltered
    ctx = bare_field(5, 1, 3)
    f = build_psi(ctx, 2)
    assert is_scattered_ranks(f).bad_shift is not None
    assert nonscattered_witness_search(f) is not None
    for space, G in (("shifts", 1), ("classes", 2)):
        fresh = bare_field(5, 1, 3).frobenius_orbits(space, 1, G)
        need, seen = 0, 0
        while seen < linalg.FIRST_BATCH:
            seen += len(next(fresh)[0])
            need += 1
        filled = sorted(key[3:] for key in ctx._orbits if key[:3] == (space, 1, G))
        total = ctx.order if space == "shifts" else ctx.mult_order // (ctx.q - 1)
        assert filled == list(sweep_slices(total))[:need]
        assert need < len(list(sweep_slices(total)))


# -- the digit codec ---------------------------------------------------------------


@pytest.mark.parametrize("pet", [(3, 1, 3), (5, 1, 3), (3, 1, 4), (3, 1, 5), (5, 1, 4),
                                 (13, 1, 3), (3, 2, 3)])
@pytest.mark.parametrize("dtype", [np.int8, np.float32, np.int64])
def test_plane_indices_inverts_digit_planes(pet, dtype):
    p, e, t = pet
    en, order = 2 * e * t, p ** (2 * e * t)
    rng = np.random.default_rng(order)
    for shape in [(), (1,), (9,), (3, 5), (2, 3, 4)]:
        x = rng.integers(0, order, size=shape)
        if x.size >= 2:
            x.flat[:2] = [0, order - 1]
        planes = digit_planes(x, p, en, dtype)
        assert planes.shape == (en,) + shape and planes.dtype == dtype
        # lowest digit first, as the indices encode coordinates
        want = [[v // p ** d % p for v in x.ravel().tolist()] for d in range(en)]
        assert planes.reshape(en, -1).tolist() == want
        back = plane_indices(planes, p)
        assert back.dtype == np.int64 and back.shape == shape
        assert np.array_equal(back, x)


@pytest.mark.parametrize("p, K", [(3, 6), (13, 36), (181, 36), (1669, 6),
                                  (1693, 6), (4099, 6), (46337, 36)])
def test_mod_p_product_matches_integer_product(p, K):
    # float32 up to K*p^2 < 2^24 and float64 beyond: 6*1669^2 lies just
    # below 2^24 and 6*1693^2 just above; no benchmark field has a
    # product beyond it
    rng = np.random.default_rng(p * K)
    A = rng.integers(0, p, size=(7, K))
    X = rng.integers(0, p, size=(K, 500))
    A[0], X[:, 0] = p - 1, p - 1  # the largest entry, K*(p-1)^2
    A[1], X[:, 1] = 0, 0
    want = A @ X % p
    for planes in (X, X.astype(np.float64), X.astype(np.int16 if p < 1 << 15 else np.int32)):
        got = mod_p_product(A, planes, p)
        assert got.dtype == (np.float32 if K * p * p < 1 << 24 else np.float64)
        assert np.array_equal(got, want)
    # extra leading axes of the planes ride along
    stacked = mod_p_product(A, np.stack([X, X[:, ::-1]]), p)
    assert np.array_equal(stacked, np.stack([want, want[:, ::-1]]))


def _is_np_call(node, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy"))


def test_only_linalg_converts_digit_arrays():
    # index <-> digit-plane conversions and exact float products mod p live
    # in linalg.py alone (digit_planes, plane_indices, mod_p_product): no
    # other module of the package floors a float array or weighs digits
    # by a power row p ** np.arange(...)
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "scatpoly"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if _is_np_call(node, "floor"):
                found.append(f"{path.name}:{node.lineno} np.floor")
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                  and _is_np_call(node.right, "arange")):
                found.append(f"{path.name}:{node.lineno} ** np.arange")
    assert len(list(src.glob("*.py"))) > 1 and not found, found


def test_modp_rref_and_nullspace():
    mat = np.array([[1, 2, 0, 1], [2, 4, 1, 0], [0, 0, 1, 3]], dtype=np.int64)
    red, piv = modp_rref(mat, 5)
    assert piv == [0, 2]
    ns = modp_nullspace(mat, 5)
    assert ns.shape[0] == 4 - len(piv)
    assert not (mat @ ns.T % 5).any()
    # full-rank system has an empty kernel
    eye = np.eye(3, dtype=np.int64)
    assert modp_nullspace(eye, 3).shape[0] == 0


def _textbook_rref(mat, p):
    """The reduced row echelon form by textbook elimination in Python ints:
    at each column, swap the first nonzero row at or below the current one
    up, scale it to a leading 1 and clear the column in every other row."""
    R = [[int(x) % p for x in row] for row in mat]
    ncols = np.shape(mat)[1]
    pivots, r = [], 0
    for j in range(ncols):
        piv = next((i for i in range(r, len(R)) if R[i][j]), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = pow(R[r][j], -1, p)
        R[r] = [x * inv % p for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][j]:
                c = R[i][j]
                R[i] = [(x - c * y) % p for x, y in zip(R[i], R[r])]
        pivots.append(j)
        r += 1
    return R[:r], pivots


def _rref_cases(p, rng):
    """Empty, zero, tall, wide, square and low-rank matrices mod p, some
    with entries outside 0..p-1."""
    yield np.zeros((0, 5), dtype=np.int64)
    yield np.zeros((4, 0), dtype=np.int64)
    yield np.zeros((0, 0), dtype=np.int64)
    yield np.zeros((5, 7), dtype=np.int64)
    for shape in ((300, 20), (20, 300), (12, 12), (1, 9), (9, 1), (40, 16)):
        yield rng.integers(0, p, size=shape)
    yield rng.integers(-2 * p, 2 * p, size=(30, 10))
    # sparse: most entries zero, so pivots skip columns
    yield rng.integers(0, p, size=(25, 18)) * (rng.random((25, 18)) < 0.1)
    for m, k, n in ((300, 3, 20), (40, 7, 60), (16, 1, 16), (50, 11, 12)):
        yield rng.integers(0, p, size=(m, k)) @ rng.integers(0, p, size=(k, n)) % p


def _full_rank(p, rng, nI, nJ):
    """A random nI x nJ matrix mod p of rank min(nI, nJ), by rejection."""
    while True:
        M = rng.integers(0, p, size=(nI, nJ))
        if len(modp_rref(M, p)[1]) == min(nI, nJ):
            return M


def _rank_members(p, rng, nI, nJ):
    """Members for one batch of the rank kernel: zero, full-rank, sparse,
    random and low-rank matrices, some with a zero coordinate-0 row (no
    pivot at step 0) and some with vectors planted as combinations of
    others."""
    yield np.zeros((nI, nJ), dtype=np.int64)
    for _ in range(3):
        yield _full_rank(p, rng, nI, nJ)
    for _ in range(4):
        M = rng.integers(0, p, size=(nI, nJ))
        yield M
        M = M * (rng.random((nI, nJ)) < 0.2)
        yield M
        M = M.copy()
        M[0] = 0
        yield M
    for k in range(1, min(nI, nJ)):
        yield rng.integers(0, p, size=(nI, k)) @ rng.integers(0, p, size=(k, nJ)) % p
    if nJ > 1:
        for _ in range(3):
            # vectors A[:, j] for j in dep are combinations of the others
            M = rng.integers(0, p, size=(nI, nJ))
            dep = rng.choice(nJ, size=max(1, nJ // 3), replace=False)
            others = np.setdiff1d(np.arange(nJ), dep)
            M[:, dep] = M[:, others] @ rng.integers(0, p, size=(len(others), len(dep))) % p
            yield M


@pytest.mark.parametrize("p", [3, 13, 181, 191])
def test_modp_ranks_matches_modp_rref(p):
    dtype = _residue_dtype(p)
    rng = np.random.default_rng(p)
    for nI, nJ in ((6, 9), (9, 6), (8, 8), (1, 5), (5, 1), (1, 1), (12, 12)):
        members = list(_rank_members(p, rng, nI, nJ))
        A = np.stack(members, axis=2).astype(dtype)
        # step 0 has a pivot in some members and none in others
        has0 = (A[0] != 0).any(axis=0)
        assert has0.any() and not has0.all()
        want = [len(modp_rref(A[:, :, b], p)[1]) for b in range(A.shape[2])]
        assert want[0] == 0 and want[1:4] == [min(nI, nJ)] * 3
        got = _modp_ranks(A.copy(), p)
        assert got.dtype == np.int64 and got.tolist() == want, (nI, nJ)
    for shape in ((4, 6, 0), (0, 6, 5), (4, 0, 5), (0, 0, 3)):
        got = _modp_ranks(np.zeros(shape, dtype=dtype), p)
        assert got.dtype == np.int64 and got.tolist() == [0] * shape[2]


@pytest.mark.parametrize("p", [3, 5, 13, 46337])
def test_modp_rref_matches_textbook_elimination(p):
    rng = np.random.default_rng(p)
    for mat in _rref_cases(p, rng):
        before = mat.copy()
        red, piv = modp_rref(mat, p)
        want, want_piv = _textbook_rref(mat, p)
        assert piv == want_piv, mat.shape
        assert red.dtype == np.int64 and red.shape == (len(want), mat.shape[1])
        assert red.tolist() == want
        assert np.array_equal(mat, before)
        ns = modp_nullspace(mat, p)
        assert ns.shape == (mat.shape[1] - len(piv), mat.shape[1])
        assert not (mat % p @ ns.T % p).any()
        # the form is unique: a row permutation of the input keeps it
        shuffled, piv2 = modp_rref(mat[rng.permutation(len(mat))], p)
        assert piv2 == piv and np.array_equal(shuffled, red)


@settings(max_examples=60)
@given(p=st.sampled_from([3, 13, 181]), shape=st.sampled_from(["tall", "wide", "deficient"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_modp_rref_depends_only_on_the_row_space(p, shape, seed):
    # a row permutation, an invertible mix of the rows and extra rows that
    # are combinations of them keep the row space, so the reduced form
    rng = np.random.default_rng(seed)
    small, big = int(rng.integers(1, 17)), int(rng.integers(17, 49))
    if shape == "tall":
        mat = rng.integers(0, p, size=(big, small))
    elif shape == "wide":
        mat = rng.integers(0, p, size=(small, big))
    else:
        k = int(rng.integers(1, small + 1))
        mat = rng.integers(0, p, size=(big, k)) @ rng.integers(0, p, size=(k, small)) % p
    red, piv = modp_rref(mat, p)
    assert np.array_equal(red[:, piv], np.eye(len(piv), dtype=np.int64))
    m = len(mat)
    # unit lower times unit upper triangular: invertible mod p
    lower = np.tril(rng.integers(0, p, size=(m, m)), -1) + np.eye(m, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, size=(m, m)), 1) + np.eye(m, dtype=np.int64)
    mixed = lower @ (upper @ mat % p) % p
    extra = rng.integers(0, p, size=(int(rng.integers(1, 9)), m)) @ mat % p
    for same in (mat[rng.permutation(m)], mixed, np.concatenate([extra, mat])):
        got, got_piv = modp_rref(same, p)
        assert got_piv == piv and np.array_equal(got, red)
    ns = modp_nullspace(mat, p)
    assert ns.shape == (mat.shape[1] - len(piv), mat.shape[1])
    assert not (mat @ ns.T % p).any()


# -- kernels of GF(p)-matrices on field elements ---------------------------------


def _scan_kernel(fs):
    """Every x with f(x) = 0 for each f in fs, ascending: scalar arithmetic
    at every x of fields of at most 5^6 elements, the log tables beyond (a
    scalar evaluation costs about 30 us, 17 s over the 531441 elements of
    q = 9)."""
    ctx = fs[0].ctx
    if ctx.order <= 5 ** 6:
        return [x for x in range(ctx.order) if all(f(x) == 0 for f in fs)]
    xs = np.arange(ctx.order, dtype=np.int64)
    zero = np.ones(ctx.order, dtype=bool)
    for f in fs:
        fx = np.zeros_like(xs)
        for i, c in enumerate(f.coeffs):
            fx = ctx.vadd(fx, ctx.vscale(c, ctx.vfrob(xs, i)))
        zero &= fx == 0
    return np.flatnonzero(zero).tolist()


def _check_kernel(fs, bare_field):
    """The nullspace basis of the stacked matrices of fs lists the common
    kernel ascending, its first row is the smallest nonzero element, and a
    context without tables gives the same."""
    ctx = fs[0].ctx
    want = _scan_kernel(fs)
    bare = bare_field(ctx.p, ctx.e, ctx.t)
    for c in (ctx, bare):
        A = np.concatenate([LinPoly(c, f.coeffs).matrix() for f in fs])
        basis = modp_nullspace(A, c.p)
        assert span_indices(basis.T, c.p).tolist() == want
        assert (c.from_digits(basis[0]) if len(basis) else None) == (
            want[1] if len(want) > 1 else None)


@pytest.mark.parametrize("pet", [(3, 1, 3), (5, 1, 3), (3, 2, 3)])
def test_kernel_empty_and_whole_field(pet, bare_field):
    ctx = build_field(*pet)
    _check_kernel([LinPoly.identity(ctx)], bare_field)
    _check_kernel([LinPoly.zero(ctx)], bare_field)
    _check_kernel([LinPoly.zero(ctx), LinPoly.identity(ctx)], bare_field)


@pytest.mark.parametrize("pet", [(3, 1, 3), (5, 1, 3), (3, 2, 3)])
@settings(max_examples=6)
@given(data=st.data())
def test_kernel_matches_scan(pet, bare_field, data):
    ctx = build_field(*pet)
    x0 = data.draw(st.integers(1, ctx.order - 1))

    def draw_map():
        f = LinPoly(ctx, data.draw(st.lists(_elements(ctx), min_size=ctx.n, max_size=ctx.n)))
        kind = data.draw(st.sampled_from(["random", "planted", "subfield"]))
        if kind == "planted":
            # f - (f(x0)/x0)*id has x0 in its kernel
            return f + LinPoly.monomial(ctx, ctx.neg(ctx.div(f(x0), x0)), 0)
        if kind == "subfield":
            # c*(x^(q^t) - x) has kernel GF(q^t)
            c = data.draw(st.integers(1, ctx.order - 1))
            return (LinPoly.monomial(ctx, 1, ctx.t) - LinPoly.identity(ctx)).scale(c)
        return f

    _check_kernel([draw_map() for _ in range(data.draw(st.integers(1, 2)))], bare_field)
