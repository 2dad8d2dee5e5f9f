import ast
import pathlib
import tracemalloc

import numpy as np
import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (gf_gcdex, gf_irreducible_p, gf_mul, gf_pow_mod, gf_rem,
                                     gf_strip)

from scatpoly.codes import build_code, idealiser
from scatpoly.errors import BadParams, EvenP, FieldTooLarge, NonPrimeP, ReducibleModulus, TSmall
from scatpoly.fields import (FieldCtx, FieldSpec, _SLICE, build_field, is_irreducible,
                             smallest_irreducible)
from scatpoly.linalg import sweep_slices
from scatpoly.linpoly import LinPoly
from scatpoly.linsets import subspace_equivalent, valid_u2_deltas
from scatpoly.scattered import (baer_partition_check, build_psi, is_scattered_fibers,
                                is_scattered_ranks, nonscattered_witness_search)


def test_parameter_validation():
    with pytest.raises(NonPrimeP):
        build_field(6, 1, 3)
    with pytest.raises(EvenP):
        build_field(2, 1, 3)
    with pytest.raises(BadParams):
        build_field(3, 0, 3)
    with pytest.raises(TSmall):
        build_field(3, 1, 2)


def test_element_indices_fit_int64():
    # 1451^6 is above 2^63, 1447^6 below
    with pytest.raises(BadParams):
        build_field(1451, 1, 3)
    ctx = build_field(1447, 1, 3)
    assert ctx.order == 1447**6 < 1 << 63 and not ctx.has_tables
    assert ctx._pow_nt(ctx.omega, ctx.mult_order) == 1


def test_parameters_normalised_once(ctx33):
    # numpy integers name the same field as Python ones; bools, floats and
    # strings are not integers
    assert build_field(np.int64(3), np.int64(1), np.int64(3)) is ctx33
    assert build_field(3, 1, np.int32(3)) is ctx33
    mod = np.array([2, 1, 0, 0, 0, 0, 1], dtype=np.int64)
    explicit = build_field(3, 1, 3, modulus=mod)
    assert explicit.spec == ctx33.spec and explicit.modulus == (2, 1, 0, 0, 0, 0, 1)
    assert build_field(3, 1, 3, modulus=[2, 1, 0, 0, 0, 0, 1]) is explicit
    for args in ((3, True, 3), (5.0, 1, 3), (3, 1, "3"), (True, 1, 3), (3, 1, 3.0)):
        with pytest.raises(BadParams):
            build_field(*args)
    with pytest.raises(BadParams):
        build_field(3, 1, 3, modulus=[2.0, 1, 0, 0, 0, 0, 1])


def test_modulus_validation():
    # wrong degree
    with pytest.raises(ReducibleModulus):
        build_field(3, 1, 3, modulus=[1, 0, 1])
    # not monic
    with pytest.raises(ReducibleModulus):
        build_field(3, 1, 3, modulus=[2, 1, 0, 0, 0, 0, 2])
    # reducible of the right degree: x^6 - 1
    with pytest.raises(ReducibleModulus):
        build_field(3, 1, 3, modulus=[2, 0, 0, 0, 0, 0, 1])


def test_explicit_modulus_and_caching(ctx33):
    explicit = build_field(3, 1, 3, modulus=[2, 1, 0, 0, 0, 0, 1])
    # the default modulus for these parameters is the same polynomial
    assert explicit.spec == ctx33.spec
    assert explicit.modulus == (2, 1, 0, 0, 0, 0, 1)
    assert is_irreducible(explicit.modulus, 3)
    # repeated calls with identical arguments hit the context cache
    assert build_field(3, 1, 3) is ctx33
    assert build_field(3, 1, 3, modulus=[2, 1, 0, 0, 0, 0, 1]) is explicit


def test_spec_roundtrip(ctx53):
    obj = ctx53.spec.to_json()
    back = FieldSpec.from_json(obj)
    assert back == ctx53.spec


def test_smallest_irreducible():
    coeffs = smallest_irreducible(3, 6)
    assert len(coeffs) == 7 and coeffs[-1] == 1
    assert is_irreducible(coeffs, 3)


def test_sizes(ctx33, ctx53, ctx34, ctx923):
    for ctx in (ctx33, ctx53, ctx34, ctx923):
        assert ctx.q == ctx.p**ctx.e
        assert ctx.n == 2 * ctx.t
        assert ctx.order == ctx.q**ctx.n
        assert ctx.en == ctx.e * ctx.n
    assert ctx923.q == 9 and ctx923.order == 9**6


def test_arithmetic_axioms(ctx33):
    rng = np.random.default_rng(7)
    xs = rng.integers(0, ctx33.order, size=80)
    ys = rng.integers(0, ctx33.order, size=80)
    zs = rng.integers(0, ctx33.order, size=80)
    for a, b, c in zip(xs, ys, zs):
        a, b, c = int(a), int(b), int(c)
        assert ctx33.mul(a, ctx33.add(b, c)) == ctx33.add(ctx33.mul(a, b), ctx33.mul(a, c))
        assert ctx33.sub(a, b) == ctx33.add(a, ctx33.neg(b))
        if a:
            assert ctx33.mul(a, ctx33.inv(a)) == 1
            assert ctx33.div(b, a) == ctx33.mul(b, ctx33.inv(a))
    assert ctx33.pow_(0, 0) == 1
    with pytest.raises(ZeroDivisionError):
        ctx33.inv(0)


def test_pow_matches_repeated_mul(ctx53):
    a = ctx53.omega
    acc = 1
    for m in range(12):
        assert ctx53.pow_(a, m) == acc
        acc = ctx53.mul(acc, a)
    assert ctx53.pow_(a, -1) == ctx53.inv(a)


def test_omega_generates(ctx33):
    top = ctx33.order - 1
    assert ctx33.pow_(ctx33.omega, top) == 1
    for f in sympy.factorint(top):
        assert ctx33.pow_(ctx33.omega, top // f) != 1


def _first_generator(ctx):
    """The smallest index c >= 2 whose powers by (q^n - 1)/r, r prime, are
    all different from 1, by scalar square-and-multiply."""
    M = ctx.mult_order
    parts = [M // r for r in sympy.factorint(M)]
    return next(c for c in range(2, ctx.order)
                if all(ctx._pow_nt(c, m) != 1 for m in parts))


@pytest.mark.parametrize("key", [(3, 1, 3), (5, 1, 3), (3, 1, 4), (3, 1, 5), (3, 2, 3),
                                 (5, 1, 4), (13, 1, 3), (191, 1, 3)])
def test_omega_is_first_generator(key, bare_field):
    # every field the test suite and the benchmark build, tables or not:
    # the tables are indexed by log base omega, so omega fixes their bytes
    ctx = bare_field(*key)
    assert ctx.omega == _first_generator(ctx)


def test_frobenius(ctx33, ctx923):
    for ctx in (ctx33, ctx923):
        rng = np.random.default_rng(11)
        xs = rng.integers(0, ctx.order, size=60)
        ys = rng.integers(0, ctx.order, size=60)
        for a, b in zip(xs, ys):
            a, b = int(a), int(b)
            assert ctx.frob(ctx.add(a, b)) == ctx.add(ctx.frob(a), ctx.frob(b))
            assert ctx.frob(ctx.mul(a, b)) == ctx.mul(ctx.frob(a), ctx.frob(b))
            assert ctx.frob(a, ctx.n) == a
            assert ctx.frob(a, 1) == ctx.pow_(a, ctx.q)
            assert ctx.frob(ctx.frob(a, 2), ctx.n - 2) == a
        assert ctx.frob_p(int(xs[0]), ctx.e) == ctx.frob(int(xs[0]), 1)


def test_frobenius_without_tables(ctx33, ctx923, bare_field):
    # the no-table path applies the digit matrix of x -> x^(p^j)
    for ctx in (ctx33, ctx923):
        bare = bare_field(ctx.p, ctx.e, ctx.t)
        rng = np.random.default_rng(13)
        for a in [0, 1, ctx.omega, *map(int, rng.integers(0, ctx.order, size=20))]:
            for j in range(ctx.en):
                assert bare.frob_p(a, j) == ctx.frob_p(a, j), (ctx, a, j)
            for k in range(-1, ctx.n + 1):
                assert bare.frob(a, k) == ctx.frob(a, k), (ctx, a, k)
        assert not bare.has_tables


def test_trace_norm(ctx53):
    ctx = ctx53
    rng = np.random.default_rng(5)
    xs = rng.integers(0, ctx.order, size=40)
    ys = rng.integers(0, ctx.order, size=40)
    for a, b in zip(xs, ys):
        a, b = int(a), int(b)
        for level in ("q", "qt"):
            ta = ctx.trace(a, level)
            assert ctx.in_subfield(ta, level)
            assert ctx.trace(ctx.add(a, b), level) == ctx.add(ta, ctx.trace(b, level))
            na = ctx.norm(a, level)
            assert ctx.in_subfield(na, level)
            assert ctx.norm(ctx.mul(a, b), level) == ctx.mul(na, ctx.norm(b, level))
    # norm to GF(q) is the product of all q-power conjugates
    a = ctx.omega
    prod = 1
    for k in range(ctx.n):
        prod = ctx.mul(prod, ctx.frob(a, k))
    assert ctx.norm(a, "q") == prod


def test_split_halves(ctx33):
    ctx = ctx33
    rng = np.random.default_rng(3)
    for a in rng.integers(0, ctx.order, size=50):
        a = int(a)
        h, w = ctx.split(a)
        assert ctx.add(h, w) == a
        assert ctx.in_subfield(h, "qt")
        assert ctx.in_w(w)
        # the two halves are eigenvectors of the degree-t Frobenius
        assert ctx.frob(h, ctx.t) == h
        assert ctx.frob(w, ctx.t) == ctx.neg(w)
    # the split is direct: only 0 lies in both parts
    assert ctx.in_w(0) and ctx.in_subfield(0, "qt")


def test_w_unity_root(ctx33, ctx53):
    r = ctx33.w_unity_root(1)
    assert r is not None
    assert ctx33.in_w(r)
    assert ctx33.pow_(r, ctx33.q + 1) == 1
    assert ctx53.w_unity_root(1) is None


def test_vector_ops_match_scalar(ctx34):
    ctx = ctx34
    rng = np.random.default_rng(17)
    a = rng.integers(0, ctx.order, size=200)
    b = rng.integers(0, ctx.order, size=200)
    assert all(ctx.vadd(a, b)[i] == ctx.add(int(a[i]), int(b[i])) for i in range(200))
    assert all(ctx.vmul(a, b)[i] == ctx.mul(int(a[i]), int(b[i])) for i in range(200))
    assert all(ctx.vneg(a)[i] == ctx.neg(int(a[i])) for i in range(200))
    assert all(ctx.vfrob(a, 3)[i] == ctx.frob(int(a[i]), 3) for i in range(200))
    nz = a[a != 0]
    assert all(ctx.vinv(nz)[i] == ctx.inv(int(nz[i])) for i in range(len(nz)))
    assert all(ctx.vscale(7, a)[i] == ctx.mul(7, int(a[i])) for i in range(200))
    assert all(ctx.vpow_int(a, 3)[i] == ctx.pow_(int(a[i]), 3) for i in range(200))


def test_digits_roundtrip(ctx923):
    ctx = ctx923
    for a in (0, 1, ctx.omega, ctx.order - 1):
        digs = ctx.digits(a)
        assert len(digs) == ctx.en
        assert ctx.from_digits(digs) == a


# -- the table-free arithmetic against sympy's GF(p)[x] -------------------------


@pytest.mark.parametrize("p", [3, 5, 13, 191])
def test_is_irreducible_matches_sympy(p):
    # random monic polynomials of degrees 1-12, at least two irreducible
    # and two reducible ones of each degree above 1, then for even m
    # products of two distinct irreducibles of degree m/2, which pass the
    # x^(p^m) = x test and fail only on the rank of x^(p^(m/2)) - x
    rng = np.random.default_rng(p)
    irreducibles = {}
    for m in range(1, 13):
        seen = {True: [], False: []}
        for _ in range(400):
            coeffs = [int(c) for c in rng.integers(0, p, size=m)] + [1]
            want = gf_irreducible_p(coeffs[::-1], p, ZZ)
            assert is_irreducible(coeffs, p) == want, coeffs
            seen[want].append(coeffs[::-1])
            if len(seen[True]) >= 2 and (m == 1 or len(seen[False]) >= 2):
                break
        assert len(seen[True]) >= 2 and (m == 1 or len(seen[False]) >= 2), m
        irreducibles[m] = seen[True]
        if m % 2 == 0:
            g, h = irreducibles[m // 2][:2]
            if g != h:
                assert not is_irreducible(gf_mul(g, h, p, ZZ)[::-1], p), (g, h)


def _gf(ctx, a):
    """The element of index a as a big-endian sympy GF(p)[x] polynomial."""
    return gf_strip(ctx.digits(a)[::-1])


def _index(ctx, poly):
    return ctx.from_digits(list(poly)[::-1])


@pytest.mark.parametrize("pet", [(3, 1, 3), (3, 2, 3), (13, 1, 3), (191, 1, 3)])
def test_table_free_arithmetic_matches_sympy(pet):
    ctx = build_field(*pet)
    p, en = ctx.p, ctx.en
    mod = list(ctx.modulus)[::-1]

    def index_rem(poly):
        return _index(ctx, gf_rem(poly, mod, p, ZZ))

    rng = np.random.default_rng(29)
    elems = [1, p, ctx.omega, ctx.order - 1, *map(int, rng.integers(1, ctx.order, size=16))]
    exps = [0, 1, ctx.mult_order - 1, *map(int, rng.integers(0, ctx.order, size=len(elems) - 3))]
    for a, b, m in zip(elems, elems[::-1], exps):
        A = _gf(ctx, a)
        assert ctx._mul_nt(a, b) == index_rem(gf_mul(A, _gf(ctx, b), p, ZZ)), (a, b)
        assert ctx._pow_nt(a, m) == _index(ctx, gf_pow_mod(A, m, mod, p, ZZ)), (a, m)
        s, _, one = gf_gcdex(A, mod, p, ZZ)
        assert one == [1] and ctx._inv_nt(a) == _index(ctx, s), a
        # column i of M_a holds the digits of a * x^i
        want = [ctx.digits(index_rem(gf_mul(A, [1] + [0] * i, p, ZZ))) for i in range(en)]
        assert np.array_equal(ctx._mult_matrix(a), np.array(want).T), a
    for j in range(en):
        # column i of the p^j-Frobenius matrix holds the digits of x^(i*p^j)
        want = [ctx.digits(_index(ctx, gf_pow_mod([1, 0], i * p**j, mod, p, ZZ)))
                for i in range(en)]
        assert np.array_equal(ctx._frob_matrix(j), np.array(want).T), j


def test_inverse_without_tables(ctx33, ctx923):
    # every nonzero a at (3,3); at q = 9 one no-table inverse, a product of
    # 11 conjugates through 12 x 12 matrices, costs about 90 us, so every
    # 29th element stands in for the 531440 of them
    for ctx, step in ((ctx33, 1), (ctx923, 29)):
        for a in [*range(1, ctx.order, step), ctx.order - 1]:
            assert ctx._inv_nt(a) == ctx.inv(a), a


# -- the tables, each checked against arithmetic that reads no table ----------


def test_exp_matches_powers(ctx33, ctx923):
    # every j at (3,3); elsewhere both sides of each doubling step 2^k and
    # of each slice edge of the build, where a wrong offset would show
    ctx = ctx33
    acc = 1
    for j in range(ctx.mult_order):
        assert ctx._exp[j] == acc, j
        acc = ctx._mul_nt(acc, ctx.omega)
    assert acc == 1
    for ctx in (build_field(5, 1, 4), ctx923):
        M = ctx.mult_order
        edges = {1 << k for k in range(M.bit_length())} | set(range(_SLICE, M, _SLICE))
        for j in sorted({j + d for j in edges for d in (-1, 0)} | {M - 1}):
            if j < M:
                assert ctx._exp[j] == ctx._pow_nt(ctx.omega, j), (ctx, j)


def test_zech_is_log_of_one_plus(ctx33, ctx53, ctx923):
    # zech[k] = log(1 + omega^k) by digitwise addition; -1 only at k = M/2,
    # where omega^k = -1
    for ctx, step in ((ctx33, 1), (ctx53, 97), (ctx923, 331)):
        M = ctx.mult_order
        assert np.flatnonzero(ctx._zech == -1).tolist() == [M // 2]
        assert ctx.add(1, ctx.gen_power(M // 2)) == 0
        for k in [*range(0, M, step), M - 1]:
            if k != M // 2:
                assert ctx._exp[ctx._zech[k]] == ctx.add(1, int(ctx._exp[k])), (ctx, k)


def test_frob_table_is_frobenius_matrix(ctx33, ctx923):
    # frob_q[x] is the q-Frobenius matrix applied to the digits of x
    for ctx, step in ((ctx33, 1), (ctx923, 7)):
        xs = np.arange(0, ctx.order, step, dtype=np.int64)
        ppow = ctx.p ** np.arange(ctx.en, dtype=np.int64)
        images = ctx._frob_matrix(ctx.e) @ (xs // ppow[:, None] % ctx.p) % ctx.p
        assert np.array_equal(ctx._frob_q[xs], ppow @ images)


def test_tables_built_on_first_use(ctx33, ctx923, bare_field):
    # fields up to 2^20 elements build exp and log at construction, larger
    # ones not; passes that read no table leave them unbuilt, the first
    # orbit sweep builds them, and the Zech and Frobenius tables are built
    # when read, all four the same as on a field built eagerly
    assert ctx923.order <= 1 << 20 and ctx923.has_tables
    assert not FieldCtx(FieldSpec(13, 1, 3)).has_tables
    bare = bare_field(3, 1, 3)
    assert not bare.has_tables
    f, g = build_psi(bare, 1), build_psi(ctx33, 1)
    assert subspace_equivalent(f, build_psi(bare, 5)) is not None
    assert is_scattered_ranks(f) == is_scattered_ranks(g)
    assert idealiser(build_code(f), "left").to_json() == idealiser(build_code(g), "left").to_json()
    assert not bare.has_tables
    assert is_scattered_fibers(f) == is_scattered_fibers(g) and bare.has_tables
    for name in ("_exp", "_log", "_zech", "_frob_q"):
        assert np.array_equal(getattr(bare, name), getattr(ctx33, name)), name


def test_tables_refused_above_the_limit():
    # 191^6 elements: FieldTooLarge before any table is allocated
    ctx = build_field(191, 1, 3)
    tracemalloc.start()
    try:
        with pytest.raises(FieldTooLarge):
            ctx._need_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and not ctx.has_tables and not hasattr(ctx, "_exp")
    # the lazily built tables check the limit before they allocate too
    tracemalloc.start()
    try:
        with pytest.raises(FieldTooLarge):
            ctx._zech
        with pytest.raises(FieldTooLarge):
            ctx._frob_q
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and not {"_zech", "_frob_q"} & set(vars(ctx))


def test_table_build_makes_exp_and_log_only(bare_field):
    # the build makes two int32 tables, 8 bytes per element, and peaks at
    # the digit planes and exp, e*n + 4 bytes per element: the bound leaves
    # 4 more and 2 MB for the slice buffers of the doubling
    ctx = bare_field(5, 1, 4)
    tracemalloc.start()
    try:
        ctx._build_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (ctx.en + 8) * ctx.order + (2 << 20), peak / ctx.order
    assert ctx._exp.dtype == ctx._log.dtype == np.int32
    # the sweeps read exp and log alone, so the Zech logs and the
    # q-Frobenius permutation stay unbuilt
    f = build_psi(ctx, 1)
    assert is_scattered_fibers(f).scattered
    assert nonscattered_witness_search(f) is None
    assert baer_partition_check(ctx, 1).ok
    assert not {"_zech", "_frob_q"} & set(vars(ctx))


@pytest.mark.parametrize("pet", [(13, 1, 3), (5, 1, 4), (3, 2, 3)])
def test_int32_table_reads_do_not_wrap(pet):
    # logs reach q^n - 2 in int32, so log*m and log*p^j wrap unless they
    # are widened first: every fast path against the arithmetic that reads
    # no table, at exponents near q^n - 1 and every Frobenius power
    ctx = build_field(*pet)
    ctx._need_tables()
    p, M = ctx.p, ctx.mult_order
    rng = np.random.default_rng(ctx.order)
    elems = [1, ctx.omega, ctx.order - 1, *(int(a) for a in rng.integers(2, ctx.order, 12))]
    exps = [M - 1, M - 2, M + 1, 2 * M - 3, *(ctx.q**k - 1 for k in range(1, ctx.n + 1)),
            *(int(m) for m in rng.integers(M // 2, M, 4))]
    for a in elems:
        b = int(rng.integers(1, ctx.order))
        assert ctx.mul(a, b) == ctx._mul_nt(a, b), (a, b)
        assert ctx.inv(a) == ctx._inv_nt(a), a
        for m in exps:
            assert ctx.pow_(a, m) == ctx._pow_nt(a, m), (a, m)
        for j in range(ctx.en):
            want = ctx.from_digits(ctx._frob_matrix(j) @ np.array(ctx.digits(a)) % p)
            assert ctx.frob_p(a, j) == want, (a, j)
    xs = np.concatenate([[0, 1, ctx.order - 1], rng.integers(0, ctx.order, 61)])
    nz = xs[xs != 0]
    for m in exps[:6]:
        want = [0 if x == 0 else ctx._pow_nt(int(x), m) for x in xs]
        assert ctx.vpow_int(xs, m).tolist() == want, m
    for c in (ctx.omega, ctx.order - 1, int(rng.integers(2, ctx.order))):
        assert ctx.vscale(c, xs).tolist() == [ctx._mul_nt(c, int(x)) for x in xs], c
    ppow = p ** np.arange(ctx.en, dtype=np.int64)
    for k in range(1, ctx.n):
        images = ctx._frob_matrix(ctx.e * k) @ (xs // ppow[:, None] % p) % p
        assert np.array_equal(ctx.vfrob(xs, k), ppow @ images), k
    js = rng.integers(0, 2 * M, 64)
    outs = [ctx.vgen_power(js), ctx.vlog(nz), ctx.vadd(xs, xs[::-1]), ctx.vneg(xs),
            ctx.vsub(xs, xs[::-1]), ctx.vmul(xs, xs[::-1]), ctx.vscale(ctx.omega, xs),
            ctx.vinv(nz), ctx.vfrob(xs, 1), ctx.vpow_int(xs, M - 1), ctx.vpow_int(xs, 0)]
    assert [out.dtype for out in outs] == [np.dtype(np.int64)] * len(outs)


def test_table_reads(ctx33, ctx923, bare_field):
    # vgen_power and vlog against scalar powers; a bare twin builds its
    # tables at the first of them
    for ctx in (ctx33, ctx923):
        M = ctx.mult_order
        bare = bare_field(ctx.p, ctx.e, ctx.t)
        js = np.random.default_rng(17).integers(0, M, size=200)
        assert not bare.has_tables
        got = bare.vgen_power(js)
        assert bare.has_tables
        assert got.tolist() == [ctx.gen_power(int(j)) for j in js]
        assert np.array_equal(bare.vlog(got), js)
        assert np.array_equal(bare.vgen_power(js - M), got)
        assert np.array_equal(bare.vlog(np.array([0, 1])), [-1, 0])


def test_whole_field_reads_refused_above_the_limit():
    # 191^6 elements: FieldTooLarge before any whole-field array is made
    ctx = build_field(191, 1, 3)
    tracemalloc.start()
    try:
        for call in (lambda: ctx.vgen_power(np.arange(4)),
                     lambda: is_scattered_fibers(build_psi(ctx, 1)),
                     lambda: valid_u2_deltas(ctx)):
            with pytest.raises(FieldTooLarge):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and not ctx.has_tables


def test_only_fields_reads_the_tables():
    # the table format is known to fields.py alone: no other module of the
    # package touches the arrays or the calls that build them
    private = {"_exp", "_log", "_zech", "_frob_q", "_exps", "_logs", "_need_tables",
               "_build_tables"}
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "scatpoly"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "fields.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.name}:{node.lineno} {node.attr}")
    assert len(list(src.glob("*.py"))) > 1 and not found, found


def test_build_rejects_non_generator(bare_field):
    # omega^2 has order (q^n - 1)/2, so half the nonzero elements get no log
    for key in ((3, 1, 3), (5, 1, 3)):
        ctx = bare_field(*key)
        ctx.omega = ctx._mul_nt(ctx.omega, ctx.omega)
        with pytest.raises(RuntimeError):
            ctx._build_tables()


def test_table_build_peak_memory():
    # construction, the eager build of exp and log included, stays under 32
    # bytes per element (tracemalloc counts allocations, so the peak does
    # not depend on timing)
    for key in ((5, 1, 4), (3, 2, 3)):
        tracemalloc.start()
        try:
            ctx = FieldCtx(FieldSpec(*key))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * ctx.order, (key, peak / ctx.order)


# -- Frobenius orbits ----------------------------------------------------------------

def _walk_orbits(perms):
    """(reps, sizes) of the group that the permutations perms, lists,
    generate, by walking each orbit from its first unvisited element
    through the images under every permutation: every smaller element's
    orbit has been walked, so that element is its orbit's minimum, and the
    size is the number of elements the walk visits."""
    seen = bytearray(len(perms[0]))
    reps, sizes = [], []
    for x in range(len(seen)):
        if seen[x]:
            continue
        seen[x] = 1
        todo, size = [x], 1
        while todo:
            y = todo.pop()
            for perm in perms:
                z = perm[y]
                if not seen[z]:
                    seen[z] = 1
                    size += 1
                    todo.append(z)
        reps.append(x)
        sizes.append(size)
    return reps, sizes


def _orbit_perm(ctx, space, d):
    """sigma_d: x -> x^(p^d) on the space, as a list: on the field by the log
    tables, on the classes j in [0, R) of omega^j*GF(q)* by j*p^d mod R."""
    if space == "shifts":
        return ctx.vpow_int(np.arange(ctx.order, dtype=np.int64), ctx.p ** d).tolist()
    R = ctx.mult_order // (ctx.q - 1)
    return [j * ctx.p ** d % R for j in range(R)]


def _extra_perm(ctx, space, G):
    """The second generator, as a list: on the field the product by
    zeta = omega^((q^n - 1)/G), by the log tables; on the classes j -> -j."""
    if space == "shifts":
        zeta = ctx.gen_power(ctx.mult_order // G)
        return ctx.vscale(zeta, np.arange(ctx.order, dtype=np.int64)).tolist()
    R = ctx.mult_order // (ctx.q - 1)
    return [-j % R for j in range(R)]


def _orbit_cases(ctx):
    """(space, d, G): sigma_d alone for every d on both spaces; j -> -j
    with every d on the classes; and on the field, for every m > 1
    dividing n, mu_G with G = (q^m - 1)/(q - 1), with d = 1 and d = e*n
    (sigma_d the identity), except at q^n > 10^5, where m = 2 and d = 1
    only (a walk over the field takes seconds)."""
    ds = [d for d in range(1, ctx.en + 1) if ctx.en % d == 0]
    cases = [(space, d, 1) for space in ("shifts", "classes") for d in ds]
    cases += [("classes", d, 2) for d in ds]
    for m in range(2, ctx.n + 1):
        if ctx.n % m == 0 and (ctx.order < 10 ** 5 or m == 2):
            G = (ctx.q ** m - 1) // (ctx.q - 1)
            cases += [("shifts", d, G) for d in ((1, ctx.en) if ctx.order < 10 ** 5 else (1,))]
    return cases


@pytest.mark.parametrize("pet", [(3, 1, 3), (5, 1, 3), (3, 2, 3)])
def test_frobenius_orbits_match_walked_orbits(pet):
    ctx = build_field(*pet)
    for space, d, G in _orbit_cases(ctx):
        total = ctx.order if space == "shifts" else ctx.mult_order // (ctx.q - 1)
        perm = _orbit_perm(ctx, space, d)
        perms = [perm] + ([_extra_perm(ctx, space, G)] if G > 1 else [])
        want_reps, want_sizes = _walk_orbits(perms)
        slices = list(ctx.frobenius_orbits(space, d, G))
        assert len(slices) == len(list(sweep_slices(total)))
        for (lo, hi), (reps, sizes) in zip(sweep_slices(total), slices):
            assert ((lo <= reps) & (reps < hi)).all()
            assert not reps.flags.writeable and not sizes.flags.writeable
        reps, sizes = map(np.concatenate, zip(*slices))
        # ascending, each its orbit's minimum with its orbit's size, and
        # the orbits cover the space; each size divides the group's order
        assert (np.diff(reps) > 0).all()
        assert reps.tolist() == want_reps, (space, d, G)
        assert sizes.tolist() == want_sizes, (space, d, G)
        assert sizes.sum(dtype=np.int64) == total
        assert ((ctx.en // d * G) % sizes.astype(np.int64) == 0).all()
        for gen, order in zip(perms, (ctx.en // d, G)):
            gen, image = np.array(gen), reps
            for _ in range(order - 1):
                image = gen[image]
                assert (image >= reps).all()


def test_frobenius_orbits_rejects_bad_arguments(ctx33):
    ctx = ctx33
    for space, d in (("classes", 4), ("shifts", 0), ("points", 1)):
        with pytest.raises(BadParams):
            next(ctx.frobenius_orbits(space, d))
    # G must divide q^n - 1 = 728 on the field, and be 1 or 2 on the classes
    for space, G in (("shifts", 0), ("shifts", 5), ("classes", 3), ("classes", 0)):
        with pytest.raises(BadParams):
            next(ctx.frobenius_orbits(space, 1, G))


def test_orbit_memo_matches_a_fresh_context(bare_field):
    # psi_2 at (5, 3) is not scattered: the rank checker and the witness
    # search stop at their first slice and fill only the slices they reached
    ctx = bare_field(5, 1, 3)
    f = build_psi(ctx, 2)
    assert not is_scattered_ranks(f).scattered
    assert nonscattered_witness_search(f) is not None
    for space, total in (("shifts", ctx.order), ("classes", ctx.mult_order // 4)):
        filled = [key for key in ctx._orbits if key[:2] == (space, 1)]
        assert 0 < len(filled) < len(list(sweep_slices(total)))
    # then full sweeps with d = 1 and d = 3 on the same context; a map with
    # coefficients in GF(5^3) has coefficient degree 3
    g = LinPoly(ctx, [0, ctx.gen_power(ctx.mult_order // 124), 0, 1, 0, 0])
    assert g.coeff_degree() == 3
    for space in ("shifts", "classes"):
        for d in (1, 3):
            got = list(ctx.frobenius_orbits(space, d))
            want = list(bare_field(5, 1, 3).frobenius_orbits(space, d))
            assert len(got) == len(want)
            for (r1, s1), (r2, s2) in zip(got, want):
                assert np.array_equal(r1, r2) and np.array_equal(s1, s2)
            # a second sweep reads the kept slices
            again = list(ctx.frobenius_orbits(space, d))
            assert all(a[0] is b[0] and a[1] is b[1] for a, b in zip(again, got))
    for h in (f, g):
        other = LinPoly(bare_field(5, 1, 3), h.coeffs)
        for a, b in zip(h._fibers(), other._fibers()):
            assert np.array_equal(a, b)
        assert is_scattered_ranks(h) == is_scattered_ranks(other)
        assert nonscattered_witness_search(h) == nonscattered_witness_search(other)
