import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scatpoly.errors import BadParams, BudgetExceeded
from scatpoly.linpoly import LinPoly, poly_vec
from scatpoly.linsets import (
    Certificate,
    _search_twist,
    _span_has_invertible,
    _twist_has_certificate,
    find_u1_equivalence,
    find_u2_equivalence,
    inclusion_dickson,
    known_family,
    coefficient_prefilter,
    linear_set,
    linear_set_size,
    lp_type_test,
    normalize_point,
    pseudoregulus_test,
    subspace_equivalent,
    valid_u2_deltas,
)
from scatpoly.scattered import build_psi, is_scattered_fibers, is_scattered_ranks

PROPERTY = settings(max_examples=100)


def _u4_delta(ctx):
    return next(d for d in range(ctx.order)
                if ctx.add(ctx.mul(d, d), d) == 1)


def _u5_h(ctx):
    # omega^((q^3 - 1)/2) raised to q^3 + 1 gives omega^((q^6 - 1)/2) = -1
    return ctx.gen_power((ctx.q**3 - 1) // 2)


def test_normalize_point(ctx33):
    assert normalize_point(ctx33, (0, 5)) == (0, 1)
    assert normalize_point(ctx33, (1, 7)) == (1, 7)
    a, b = 5, 11
    lam = 14
    scaled = (ctx33.mul(lam, a), ctx33.mul(lam, b))
    assert normalize_point(ctx33, scaled) == normalize_point(ctx33, (a, b))
    with pytest.raises(BadParams):
        normalize_point(ctx33, (0, 0))


def test_linear_set_matches_direct_enumeration(ctx33):
    ctx = ctx33
    f = build_psi(ctx, 1)
    vals = {ctx.div(f(x), x) for x in range(1, ctx.order)}
    got = linear_set(f)
    assert sorted(vals) == list(got)
    assert linear_set_size(f) == len(vals)


def test_u1_family(ctx33):
    f = known_family(ctx33, "u1", s=5)
    assert f == LinPoly.monomial(ctx33, 1, 5)
    assert is_scattered_fibers(f).scattered
    assert linear_set_size(f) == (ctx33.order - 1) // (ctx33.q - 1)
    with pytest.raises(BadParams):
        known_family(ctx33, "u1", s=2)


def test_u2_family(ctx33):
    delta = int(valid_u2_deltas(ctx33)[0])
    f = known_family(ctx33, "u2", s=1, delta=delta)
    assert f.coeffs[1] == delta and f.coeffs[ctx33.n - 1] == 1
    assert is_scattered_fibers(f).scattered
    with pytest.raises(BadParams):
        known_family(ctx33, "u2", s=3, delta=delta)
    with pytest.raises(BadParams):
        known_family(ctx33, "u2", s=1, delta=0)
    # any element of GF(q)-norm one is rejected
    norm_one = ctx33.gen_power(ctx33.q - 1)
    with pytest.raises(BadParams):
        known_family(ctx33, "u2", s=1, delta=norm_one)


def test_u3_family(ctx33, ctx53):
    f = known_family(ctx33, "u3", s=1, delta=ctx33.omega)
    assert f.support() == [1, 4]
    # the two checkers agree on it even when it fails to be scattered
    assert is_scattered_fibers(f).scattered == is_scattered_ranks(f).scattered
    with pytest.raises(BadParams):
        known_family(ctx33, "u3", s=1, delta=1)
    with pytest.raises(BadParams):
        known_family(ctx53, "u3", s=3, delta=ctx53.omega)  # gcd(s, n/2) != 1


def test_u3_needs_small_n():
    from scatpoly.fields import build_field
    ctx = build_field(3, 1, 5)
    with pytest.raises(BadParams):
        known_family(ctx, "u3", s=1, delta=ctx.omega)


def test_u4_family(ctx33):
    delta = _u4_delta(ctx33)
    f = known_family(ctx33, "u4", delta=delta)
    assert f.support() == [1, 3, 5] and f.coeffs[5] == delta
    assert is_scattered_fibers(f).scattered
    with pytest.raises(BadParams):
        known_family(ctx33, "u4", delta=delta + 1 if delta + 1 != _u4_delta(ctx33) else delta + 2)


def test_u5_family(ctx33):
    ctx = ctx33
    h = _u5_h(ctx)
    f = known_family(ctx, "u5", h=h)
    assert f.coeffs[1] == ctx.pow_(h, ctx.q - 1)
    assert f.coeffs[2] == ctx.neg(ctx.pow_(h, ctx.q**2 - 1))
    assert f.coeffs[4] == 1 and f.coeffs[5] == 1
    assert is_scattered_fibers(f).scattered
    with pytest.raises(BadParams):
        known_family(ctx, "u5", h=1)


def test_u4_u5_need_n6(ctx34):
    with pytest.raises(BadParams):
        known_family(ctx34, "u4", delta=1)
    with pytest.raises(BadParams):
        known_family(ctx34, "u5", h=1)
    with pytest.raises(BadParams):
        known_family(ctx34, "nosuch")


def test_valid_u2_deltas(ctx33):
    ctx = ctx33
    deltas = valid_u2_deltas(ctx)
    # the norm-one kernel has (q^n - 1)/(q - 1) elements; the rest qualify
    assert len(deltas) == (ctx.order - 1) - (ctx.order - 1) // (ctx.q - 1)
    step = (ctx.order - 1) // (ctx.q - 1)
    for d in deltas[:50]:
        assert ctx.pow_(int(d), step) != 1
    sample = valid_u2_deltas(ctx, max_deltas=50)
    assert len(sample) <= 50
    assert np.isin(sample, deltas).all()


def test_inclusion_dickson_matches_set_oracle(ctx33):
    ctx = ctx33
    psi = build_psi(ctx, 1)
    pairs = [
        (psi, psi),
        (psi, psi.adjoint()),            # equal linear sets
        (psi, known_family(ctx, "u1", s=1)),
        (known_family(ctx, "u1", s=1), psi),
        (known_family(ctx, "u1", s=1), known_family(ctx, "u1", s=5)),
        (psi, build_psi(ctx, 2)),
    ]
    for f, g in pairs:
        oracle = bool(np.isin(linear_set(f), linear_set(g)).all())
        assert inclusion_dickson(f, g) == oracle


def test_coefficient_prefilter(ctx33):
    psi = build_psi(ctx33, 1)
    assert coefficient_prefilter(psi, psi)
    # adjoints have the same linear set and must never be rejected
    assert coefficient_prefilter(psi, psi.adjoint())
    f = LinPoly.monomial(ctx33, 1, 1)
    g = LinPoly.identity(ctx33) + f
    assert not coefficient_prefilter(f, g)
    assert not np.array_equal(linear_set(f), linear_set(g))


def test_certificate_verify(ctx33):
    psi = build_psi(ctx33, 1)
    ident = Certificate(0, 1, 0, 0, 1)
    assert ident.verify(psi, psi)
    assert ident.to_json() == {"twist": 0, "matrix": [[1, 0], [0, 1]]}
    singular = Certificate(0, 1, 1, 1, 1)
    assert not singular.verify(psi, psi)
    assert not Certificate(0, 0, 1, 1, 0).verify(psi, LinPoly.monomial(ctx33, 1, 2))


def test_subspace_equivalent_scaling(ctx33):
    ctx = ctx33
    psi = build_psi(ctx, 1)
    lam = 7
    cert = subspace_equivalent(psi, psi.scale(lam))
    assert cert is not None and cert.verify(psi, psi.scale(lam))
    # independent subspace-image check over every vector
    F = psi.frob_twist(cert.twist)
    xs = np.arange(ctx.order, dtype=np.int64)
    fx = F.eval_vec(xs)
    first = ctx.vadd(ctx.vscale(cert.a, xs), ctx.vscale(cert.b, fx))
    second = ctx.vadd(ctx.vscale(cert.c, xs), ctx.vscale(cert.d, fx))
    g = psi.scale(lam)
    assert np.array_equal(g.eval_vec(first), second)


def test_subspace_equivalent_negative_and_flags(ctx33):
    ctx = ctx33
    psi = build_psi(ctx, 1)
    u1 = known_family(ctx, "u1", s=1)
    # scattered vs non-scattered subspaces can never be equivalent
    assert subspace_equivalent(psi, u1) is None
    ident = subspace_equivalent(psi, psi, with_automorphisms=False)
    assert ident is not None and ident.twist == 0 and ident.verify(psi, psi)
    with pytest.raises(BudgetExceeded):
        subspace_equivalent(psi, psi, budget=10)


def test_subspace_equivalent_rejects_scalar_left_map(ctx33):
    psi = build_psi(ctx33, 1)
    for g in (psi, LinPoly.identity(ctx33)):
        with pytest.raises(BadParams):
            subspace_equivalent(LinPoly.monomial(ctx33, 5, 0), g)


def test_u1_membership_sweeps(ctx33):
    ctx = ctx33
    high = known_family(ctx, "u1", s=5)
    found = find_u1_equivalence(high)
    assert found is not None
    s, cert = found
    # the swap matrix identifies exponents s and n - s; smallest s wins
    assert s == 1
    assert cert.verify(high, known_family(ctx, "u1", s=1))
    assert pseudoregulus_test(high)
    assert not pseudoregulus_test(build_psi(ctx, 1))


def test_u2_membership_sweep(ctx33):
    ctx = ctx33
    delta = int(valid_u2_deltas(ctx)[0])
    g = known_family(ctx, "u2", s=1, delta=delta)
    found = find_u2_equivalence(g, max_deltas=40)
    assert found is not None
    s, d, cert = found
    assert cert.verify(g, known_family(ctx, "u2", s=s, delta=d))
    assert lp_type_test(g, max_deltas=40)


def _built_pair(ctx, f, tau, lam, mu):
    """g = mu * f^tau(lam * x), equivalent to f through diag(1/lam, mu)."""
    return f.frob_twist(tau).compose(LinPoly.monomial(ctx, lam, 0)).scale(mu)


def test_subspace_equivalent_full_support_none(ctx53):
    ctx = ctx53
    rng = random.Random(5)
    while True:
        f, g = (LinPoly(ctx, [rng.randrange(1, ctx.order) for _ in range(ctx.n)])
                for _ in range(2))
        # an equivalence maps each point of L_f to a point of L_g of the
        # same weight, so different fiber-size histograms prove None
        if f.fiber_histogram() != g.fiber_histogram():
            break
    assert subspace_equivalent(f, g) is None


def test_subspace_equivalent_full_support_built(ctx53):
    ctx = ctx53
    rng = random.Random(5)
    f = LinPoly(ctx, [rng.randrange(1, ctx.order) for _ in range(ctx.n)])
    g = _built_pair(ctx, f, 4, rng.randrange(1, ctx.order), rng.randrange(1, ctx.order))
    cert = subspace_equivalent(f, g)
    assert cert is not None and cert.verify(f, g)


def test_span_has_invertible_needs_pairwise_sums(ctx33):
    ctx = ctx33
    m1 = ctx.neg(1)

    def span(*rows):
        # rows of (a, b, c, d) as digit blocks
        return poly_vec(ctx, np.array(rows, dtype=np.int64).reshape(-1, 4))

    # both rows are singular, their sum is the identity matrix
    assert _span_has_invertible(ctx, span([1, 0, 0, 0], [0, 0, 0, 1]))
    assert _span_has_invertible(ctx, span([0, 1, 0, 0], [0, 0, m1, 0]))
    # every point (l, m, l, m) of this span is singular
    assert not _span_has_invertible(ctx, span([1, 0, 1, 0], [0, 1, 0, 1]))
    assert not _span_has_invertible(ctx, span([0, 0, 0, 0]))
    assert not _span_has_invertible(ctx, np.zeros((0, 4 * ctx.en), dtype=np.int64))


def _inverse(h):
    ident = LinPoly.identity(h.ctx)
    inv = h
    while inv.compose(h) != ident:
        inv = inv.compose(h)
    return inv


def test_linear_check_finds_a_general_certificate(ctx33):
    # U_g = M * U_f for M = [[1, 1], [1, -1]], so g = (x - f) o (x + f)^-1;
    # a*d + b*c = 0 here, so a sign slip in the c or d columns shows
    ctx = ctx33
    m1 = ctx.neg(1)
    rng = random.Random(3)
    while True:
        f = LinPoly(ctx, [rng.randrange(1, ctx.order) for _ in range(ctx.n)])
        h = LinPoly.identity(ctx) + f
        if h.rank() == ctx.n:
            break
    g = (LinPoly.identity(ctx) - f).compose(_inverse(h))
    assert Certificate(0, 1, 1, 1, m1).verify(f, g)
    assert _twist_has_certificate(ctx, f, g)


def _sparse_poly(ctx, data):
    """A non-scalar q-polynomial with at most 3 nonzero coefficients."""
    slots = [data.draw(st.integers(1, ctx.n - 1))]
    slots += data.draw(st.lists(st.integers(0, ctx.n - 1), max_size=2))
    coeffs = [0] * ctx.n
    for s in slots:
        coeffs[s] = data.draw(st.integers(1, ctx.order - 1))
    return LinPoly(ctx, coeffs)


@PROPERTY
@given(data=st.data())
def test_linear_check_agrees_with_exhaustive_search(ctx33, data):
    ctx = ctx33
    f = _sparse_poly(ctx, data)
    kind = data.draw(st.sampled_from(["sparse", "diagonal", "general"]))
    units = st.one_of(st.just(1), st.just(ctx.neg(1)), st.integers(1, ctx.order - 1))
    if kind == "sparse":
        g = _sparse_poly(ctx, data)
    elif kind == "diagonal":
        g = _built_pair(ctx, f, data.draw(st.integers(0, ctx.en - 1)),
                        data.draw(units), data.draw(units))
    else:
        # U_g = M * U_F for M = [[a, b], [c, d]]: g = (c + d*F) o (a + b*F)^-1
        F = f.frob_twist(data.draw(st.integers(0, ctx.en - 1)))
        a, b, c, d = (data.draw(units) for _ in range(4))
        h = LinPoly.monomial(ctx, a, 0) + F.scale(b)
        assume(ctx.mul(a, d) != ctx.mul(b, c) and h.rank() == ctx.n)
        g = (LinPoly.monomial(ctx, c, 0) + F.scale(d)).compose(_inverse(h))
    seen, verdicts = set(), []
    for j in range(ctx.en):
        F = f.frob_twist(j)
        if F in seen:
            continue
        seen.add(F)
        found = _search_twist(ctx, F, g, j, f) is not None
        assert _twist_has_certificate(ctx, F, g) == found
        verdicts.append(found)
    assert any(verdicts) or kind == "sparse"
