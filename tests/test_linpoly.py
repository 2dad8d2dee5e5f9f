import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatpoly.errors import CtxMismatch
from scatpoly.fields import build_field
from scatpoly.linpoly import LinPoly, poly_vec, vec_poly
from scatpoly.scattered import build_psi, is_scattered_fibers, shift_ranks


def _rand_poly(ctx, rng):
    return LinPoly(ctx, [int(c) for c in rng.integers(0, ctx.order, size=ctx.n)])


def _samples(ctx, rng, k=40):
    return [int(x) for x in rng.integers(0, ctx.order, size=k)]


def _largest_coprime_divisor(n, s):
    """The largest m dividing n with gcd(s mod m, m) = 1."""
    return max(m for m in range(1, n + 1) if n % m == 0 and math.gcd(s % m, m) == 1)


def test_support_coset_pins(ctx34, ctx923):
    ctx = ctx34
    # psi_k with t even and gcd(k, t) = 1 has the all-odd support
    # {k, t-k, t+k, 2t-k}; psi_2 at t = 4 collapses onto x^(q^2)
    for k in (1, 3, 5, 7):
        assert build_psi(ctx, k).support_coset() == (2, 1)
    assert build_psi(ctx, 2).support() == [2]
    assert build_psi(ctx, 2).support_coset()[0] == 1
    assert LinPoly.monomial(ctx, 1, 1).support_coset() == (8, 1)
    assert LinPoly.zero(ctx).support_coset() == (1, 0)
    for c in (ctx34, ctx923):
        for s in range(c.n):
            m = _largest_coprime_divisor(c.n, s)
            assert LinPoly.monomial(c, c.omega, s).support_coset() == (m, s % m)
    # q = 9, n = 6: psi_k at t odd has no coset but psi_t = x^(q^3), odd
    # support gives m = 2, support {1, 4} gives m = 3, and the identity has
    # s = 0, so m = 1
    ctx = ctx923
    for k in range(1, ctx.n):
        assert build_psi(ctx, k).support_coset() == ((2, 1) if k == ctx.t else (1, 0))
    assert LinPoly(ctx, [0, 5, 0, 7, 0, 1]).support_coset() == (2, 1)
    assert LinPoly(ctx, [0, 5, 0, 0, 7, 0]).support_coset() == (3, 1)
    assert LinPoly(ctx, [0, 0, 5, 0, 0, 7]).support_coset() == (3, 2)
    assert LinPoly.identity(ctx).support_coset() == (1, 0)


@pytest.mark.parametrize("pet", [(3, 1, 4), (3, 2, 3)])
def test_support_coset_gives_the_scaling_law(pet):
    # f(lam*x) = lam^(q^s)*f(x) for lam in GF(q^m): odd-support, sparse and
    # monomial maps, checked pointwise at lam = the generator of GF(q^m)*
    ctx = build_field(*pet)
    rng = np.random.default_rng(ctx.order)
    maps = [LinPoly.monomial(ctx, int(rng.integers(1, ctx.order)), s) for s in range(ctx.n)]
    for slots in ((1, 3), (1, 5), (3, 7), (2, 5), (1, 3, 5)):
        coeffs = [0] * ctx.n
        for i in slots:
            if i < ctx.n:
                coeffs[i] = int(rng.integers(1, ctx.order))
        maps.append(LinPoly(ctx, coeffs))
    for f in maps:
        m, s = f.support_coset()
        lam = ctx.gen_power(ctx.mult_order // (ctx.q ** m - 1))
        for x in _samples(ctx, rng, 8):
            assert f(ctx.mul(lam, x)) == ctx.mul(ctx.frob(lam, s), f(x))


def test_constructor_validation(ctx33):
    with pytest.raises(ValueError):
        LinPoly(ctx33, [0, 1])
    with pytest.raises(ValueError):
        LinPoly(ctx33, [ctx33.order] + [0] * (ctx33.n - 1))
    f = LinPoly.identity(ctx33)
    with pytest.raises(AttributeError):
        f.coeffs = ()


def test_matrix_and_coeff_degree_are_kept(ctx33):
    # built on the first call and returned as the same read-only array;
    # equal maps compare equal whatever they have computed
    f = build_psi(ctx33, 1)
    A = f.matrix()
    assert f.matrix() is A and not A.flags.writeable
    with pytest.raises(ValueError):
        A[0, 0] = 1
    assert np.array_equal(A, LinPoly(ctx33, f.coeffs).matrix())
    assert f.coeff_degree() == 1 and f == LinPoly(ctx33, f.coeffs)
    with pytest.raises(AttributeError):
        f._matrix = None


def _matrix_by_columns(f):
    """A_f column by column: column d holds the digits of f(p^d)."""
    ctx = f.ctx
    return np.array([ctx.digits(f(ctx.p ** d)) for d in range(ctx.en)], dtype=np.int64).T


@pytest.mark.parametrize("fixture", ["ctx33", "ctx53", "ctx34", "ctx923"])
def test_matrix_matches_the_images_of_the_digit_basis(fixture, request):
    # the contraction against the action tensor against f at each x^d
    ctx = request.getfixturevalue(fixture)
    rng = np.random.default_rng(ctx.order + 7)
    maps = [build_psi(ctx, k) for k in range(1, ctx.n)]
    maps += [_rand_poly(ctx, rng) for _ in range(6)]
    maps += [LinPoly.zero(ctx), LinPoly.monomial(ctx, 2, 0),
             LinPoly.monomial(ctx, ctx.omega, ctx.n - 1)]
    for f in maps:
        A = f.matrix()
        assert A.dtype == np.int64 and np.array_equal(A, _matrix_by_columns(f)), f


def test_ctx_mismatch(ctx33, ctx53):
    with pytest.raises(CtxMismatch):
        LinPoly.identity(ctx33) + LinPoly.identity(ctx53)
    with pytest.raises(CtxMismatch):
        LinPoly.identity(ctx33).compose(LinPoly.identity(ctx53))


def test_additive_maps(ctx33):
    rng = np.random.default_rng(21)
    f = _rand_poly(ctx33, rng)
    for x, y in zip(_samples(ctx33, rng), _samples(ctx33, rng)):
        assert f(ctx33.add(x, y)) == ctx33.add(f(x), f(y))
        # GF(q)-semilinearity degenerates to linearity over the prime field
        assert f(ctx33.mul(2, x)) == ctx33.mul(2, f(x))


def test_ring_ops_pointwise(ctx33):
    rng = np.random.default_rng(22)
    f = _rand_poly(ctx33, rng)
    g = _rand_poly(ctx33, rng)
    lam = int(rng.integers(1, ctx33.order))
    for x in _samples(ctx33, rng):
        assert (f + g)(x) == ctx33.add(f(x), g(x))
        assert (f - g)(x) == ctx33.sub(f(x), g(x))
        assert (-f)(x) == ctx33.neg(f(x))
        assert f.scale(lam)(x) == ctx33.mul(lam, f(x))
    assert (f - f).is_zero()
    assert LinPoly.zero(ctx33).support() == []
    assert LinPoly.monomial(ctx33, 5, 2).support() == [2]


def test_compose_is_pointwise_composition(ctx34):
    rng = np.random.default_rng(23)
    f = _rand_poly(ctx34, rng)
    g = _rand_poly(ctx34, rng)
    h = _rand_poly(ctx34, rng)
    fg = f.compose(g)
    for x in _samples(ctx34, rng, 30):
        assert fg(x) == f(g(x))
    assert f.compose(g.compose(h)) == f.compose(g).compose(h)
    ident = LinPoly.identity(ctx34)
    assert f.compose(ident) == f == ident.compose(f)


def test_frob_twist_commutes_with_frobenius(ctx923):
    ctx = ctx923
    rng = np.random.default_rng(24)
    f = _rand_poly(ctx, rng)
    tw = f.frob_twist(ctx.e)  # coefficients raised to the q-th power
    for x in _samples(ctx, rng, 20):
        assert tw(ctx.frob(x, 1)) == ctx.frob(f(x), 1)
    assert f.frob_twist(ctx.e * ctx.n) == f


def test_adjoint_trace_pairing(ctx33):
    ctx = ctx33
    rng = np.random.default_rng(25)
    f = _rand_poly(ctx, rng)
    fh = f.adjoint()
    for x, y in zip(_samples(ctx, rng, 25), _samples(ctx, rng, 25)):
        assert ctx.trace(ctx.mul(y, f(x)), "q") == ctx.trace(ctx.mul(x, fh(y)), "q")
    assert fh.adjoint() == f
    g = _rand_poly(ctx, rng)
    assert f.compose(g).adjoint() == g.adjoint().compose(f.adjoint())
    assert f.adjoint().rank() == f.rank()


@pytest.mark.parametrize("pet", [(3, 1, 3), (5, 1, 3), (3, 2, 3)])
@settings(max_examples=10)
@given(data=st.data())
def test_compose_and_adjoint_identities(pet, data):
    ctx = build_field(*pet)
    elem = st.integers(0, ctx.order - 1)
    coeffs = st.lists(elem, min_size=ctx.n, max_size=ctx.n)
    f, g = LinPoly(ctx, data.draw(coeffs)), LinPoly(ctx, data.draw(coeffs))
    fg = f.compose(g)
    assert np.array_equal(fg.matrix(), f.matrix() @ g.matrix() % ctx.p)
    assert fg.adjoint() == g.adjoint().compose(f.adjoint())
    fh = f.adjoint()
    for x, y in data.draw(st.lists(st.tuples(elem, elem), min_size=1, max_size=10)):
        assert ctx.trace(ctx.mul(y, f(x))) == ctx.trace(ctx.mul(x, fh(y)))


@pytest.mark.parametrize("pet", [(3, 1, 3), (5, 1, 3), (3, 2, 3)])
@settings(max_examples=10)
@given(data=st.data())
def test_composition_matrices_match_compose(pet, bare_field, data):
    # poly_vec(f o h) = L_f poly_vec(h)
    ctx = build_field(*pet)
    coeffs = st.lists(st.integers(0, ctx.order - 1), min_size=ctx.n, max_size=ctx.n)
    f = LinPoly(ctx, data.draw(coeffs))
    hs = [LinPoly(ctx, data.draw(coeffs)) for _ in range(3)]
    hs += [LinPoly.identity(ctx), LinPoly.monomial(ctx, ctx.p, ctx.n - 1)]
    L = f.left_matrix()
    D = ctx.n * ctx.en
    assert L.shape == (D, D) and L.dtype == np.int64
    for h in hs:
        assert vec_poly(ctx, L @ poly_vec(ctx, h.coeffs) % ctx.p) == f.compose(h)
    # built without tables, the same matrix
    bare = LinPoly(bare_field(*pet), f.coeffs)
    assert np.array_equal(bare.left_matrix(), L)
    assert not bare.ctx.has_tables


def test_eval_vec_matches_scalar(ctx34):
    rng = np.random.default_rng(26)
    f = _rand_poly(ctx34, rng)
    xs = rng.integers(0, ctx34.order, size=300)
    vals = f.eval_vec(xs)
    for i in range(0, 300, 17):
        assert vals[i] == f(int(xs[i]))


def test_eval_vec_above_the_table_limit():
    # 191^6 elements, no tables: the digit-plane contraction still runs
    ctx = build_field(191, 1, 3)
    f = build_psi(ctx, 1)
    xs = [0, 1, 2, 191, ctx.omega, ctx.order - 1]
    assert f.eval_vec(np.array(xs, dtype=np.int64)).tolist() == [f(x) for x in xs]


@pytest.mark.parametrize("pet", [(3, 1, 3), (5, 1, 3), (3, 2, 3)])
@settings(max_examples=15)
@given(data=st.data())
def test_eval_all_matches_pointwise(pet, bare_field, data):
    ctx = build_field(*pet)
    elem = st.integers(0, ctx.order - 1)
    kind = data.draw(st.sampled_from(["random", "zero", "planted"]))
    f = LinPoly(ctx, data.draw(st.lists(elem, min_size=ctx.n, max_size=ctx.n)))
    if kind == "zero":
        f = LinPoly.zero(ctx)
    elif kind == "planted":
        # f + m*id with m = -f(x0)/x0 has x0 in its kernel
        x0 = data.draw(st.integers(1, ctx.order - 1))
        f = f + LinPoly.monomial(ctx, ctx.neg(ctx.div(f(x0), x0)), 0)
    got = f.eval_all()
    assert got.dtype == np.int64 and got.shape == (ctx.order,)
    # scalar arithmetic at every x of the smallest field, at drawn x (and
    # the digit basis the evaluator starts from) elsewhere: one scalar call
    # costs 20-50 us, 26 s over the 531441 elements of q = 9
    if ctx.order <= 729:
        xs = range(ctx.order)
    else:
        xs = data.draw(st.lists(elem, min_size=1, max_size=50)) + [ctx.p ** d for d in range(ctx.en)]
    assert [int(got[x]) for x in xs] == [f(x) for x in xs]
    # every x through the digit-plane contraction, an evaluation path of its own
    assert np.array_equal(got, f.eval_vec(np.arange(ctx.order, dtype=np.int64)))
    if kind == "planted":
        assert got[x0] == 0
    # the evaluator needs no tables, and shift ranks build on its matrix
    bare = LinPoly(bare_field(*pet), f.coeffs)
    assert np.array_equal(bare.eval_all(), got)
    ms = np.array(data.draw(st.lists(elem, min_size=1, max_size=20)), dtype=np.int64)
    assert np.array_equal(shift_ranks(bare, ms), shift_ranks(f, ms))
    assert not bare.ctx.has_tables


def test_rank_counts_roots(ctx33):
    ctx = ctx33
    rng = np.random.default_rng(27)
    for _ in range(6):
        f = _rand_poly(ctx, rng)
        xs = np.arange(ctx.order, dtype=np.int64)
        roots = int((f.eval_vec(xs) == 0).sum())
        # kernel is a GF(q)-subspace, so #roots = q^(kernel dim)
        assert roots == ctx.q ** f.kernel_dim()
        assert f.rank() + f.kernel_dim() == ctx.n
    assert LinPoly.zero(ctx).rank() == 0
    assert LinPoly.identity(ctx).rank() == ctx.n


def test_dickson_layout(ctx33):
    n = ctx33.n
    f = LinPoly.monomial(ctx33, 1, 1)
    d = f.dickson()
    assert len(d) == n and all(len(row) == n for row in d)
    # row i holds the coefficients shifted by i and raised to the q^i power
    for i in range(n):
        assert d[i][(i + 1) % n] == 1
        assert sum(d[i]) == 1


def test_map_order(ctx33):
    assert LinPoly.identity(ctx33).map_order() == 1
    assert LinPoly.monomial(ctx33, 1, 1).map_order() == ctx33.n
    assert LinPoly.zero(ctx33).map_order() is None
    # scalar maps have the multiplicative order of the scalar
    lam = ctx33.gen_power((ctx33.order - 1) // 2)
    assert LinPoly.monomial(ctx33, lam, 0).map_order() == 2


def test_line_values_and_fibers(ctx33):
    ctx = ctx33
    f = LinPoly.monomial(ctx, 1, 1)
    vals = f.line_values()
    # x^q / x takes (q^n - 1)/(q - 1) distinct values, each on a fiber of size q - 1
    expected = (ctx.order - 1) // (ctx.q - 1)
    assert len(vals) == expected
    hist = f.fiber_histogram()
    assert hist == {ctx.q - 1: expected}
    assert sum(sz * cnt for sz, cnt in hist.items()) == ctx.order - 1


def test_line_values_and_fibers_not_scattered(ctx34):
    # psi_2 at (3, 4) is not scattered: some fiber of f(x)/x is larger than
    # GF(q)*, so the three readers of the f(x)/x pass must still agree
    ctx = ctx34
    f = build_psi(ctx, 2)
    hist = f.fiber_histogram()
    n_values = is_scattered_fibers(f).n_values
    assert len(f.line_values()) == n_values == sum(hist.values())
    assert sum(sz * cnt for sz, cnt in hist.items()) == ctx.order - 1
    assert max(hist) > ctx.q - 1


def test_json_roundtrip(ctx33):
    rng = np.random.default_rng(28)
    f = _rand_poly(ctx33, rng)
    back = LinPoly.from_json(ctx33, f.to_json())
    assert back == f
