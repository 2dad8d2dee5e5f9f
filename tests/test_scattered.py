import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scatpoly.errors import BadK, FieldTooLarge, NotScattered
from scatpoly.fields import build_field
from scatpoly.linalg import batch_dickson_rank, digit_contract
from scatpoly.linpoly import LinPoly
from scatpoly.scattered import (
    ScatterVerdict,
    BaerReport,
    _commutator_tensor,
    _witness_in_fiber,
    alpha_poly,
    baer_partition_check,
    beta_poly,
    build_psi,
    check_witness,
    is_scattered_fibers,
    is_scattered_ranks,
    nonscattered_witness_search,
    shift_orbits,
    shift_ranks,
    theorem_predicate,
)


def test_build_psi_slots(ctx33, ctx34):
    for ctx in (ctx33, ctx34):
        t, n = ctx.t, ctx.n
        half = ctx.two_inv
        for k in range(1, n):
            coeffs = [0] * n
            for slot, term in ((k % n, half), ((t - k) % n, half),
                               ((t + k) % n, ctx.neg(half)), ((n - k) % n, half)):
                coeffs[slot] = ctx.add(coeffs[slot], term)
            assert build_psi(ctx, k) == LinPoly(ctx, coeffs)
    with pytest.raises(BadK):
        build_psi(ctx33, 0)
    with pytest.raises(BadK):
        build_psi(ctx33, ctx33.n)
    assert build_psi(ctx33, 1 - ctx33.n) == build_psi(ctx33, 1)


def test_psi_t_is_frobenius(ctx33, ctx34):
    # at k = t the four slots collapse onto the single degree-t term
    for ctx in (ctx33, ctx34):
        assert build_psi(ctx, ctx.t) == LinPoly.monomial(ctx, 1, ctx.t)


def test_psi_is_alpha_plus_beta(ctx33, ctx34):
    for ctx in (ctx33, ctx34):
        assert build_psi(ctx, 1) == alpha_poly(ctx) + beta_poly(ctx)


def test_psi_k_is_kth_composition_power(ctx33, ctx34):
    # psi_k on the eigenspace decomposition acts like the k-fold composite
    # of psi_1, as long as k stays clear of the multiples of t
    for ctx in (ctx33, ctx34):
        psi1 = build_psi(ctx, 1)
        acc = psi1
        for k in range(2, ctx.n):
            acc = psi1.compose(acc)
            if k % ctx.t == 0:
                continue
            assert acc == build_psi(ctx, k)


def test_psi_acts_as_frobenius_on_halves(ctx53):
    ctx = ctx53
    rng = np.random.default_rng(31)
    for k in (1, 2, 4):
        psi = build_psi(ctx, k)
        for x in rng.integers(0, ctx.order, size=15):
            h, w = ctx.split(int(x))
            # subfield half: degree t - k Frobenius; skew half: degree k
            assert psi(h) == ctx.frob(h, (ctx.t - k) % ctx.n)
            assert psi(w) == ctx.frob(w, k)


def test_adjoint_reverses_exponent(ctx34):
    for k in range(1, ctx34.n):
        if k % ctx34.t == 0:
            continue
        assert build_psi(ctx34, k).adjoint() == build_psi(ctx34, ctx34.n - k)


def test_theorem_predicate_table(ctx33, ctx53, ctx34):
    # t = 3 (odd): needs gcd(k, 6) = 1 and q = 1 mod 4
    assert [theorem_predicate(ctx33, k) for k in range(1, 6)] == [False] * 5
    assert [theorem_predicate(ctx53, k) for k in range(1, 6)] == \
        [True, False, False, False, True]
    # t = 4 (even): needs gcd(k, 4) = 1, q mod 4 irrelevant
    assert [theorem_predicate(ctx34, k) for k in range(1, 8)] == \
        [True, False, True, False, True, False, True]


@pytest.mark.parametrize("fixture,ks", [("ctx33", range(1, 6)), ("ctx34", range(1, 8))])
def test_checkers_agree_with_predicate(fixture, ks, request):
    ctx = request.getfixturevalue(fixture)
    for k in ks:
        psi = build_psi(ctx, k)
        vf = is_scattered_fibers(psi)
        vr = is_scattered_ranks(psi)
        assert vf.scattered == vr.scattered == theorem_predicate(ctx, k)
        if vf.scattered:
            assert vf.n_values == (ctx.order - 1) // (ctx.q - 1)
            assert vr.bad_shift is None
        else:
            assert check_witness(psi, vf.witness)
            assert vr.bad_shift is not None


def test_scattered_iff_all_shifts_near_invertible(ctx53):
    ctx = ctx53
    psi = build_psi(ctx, 1)
    ranks = shift_ranks(psi)
    assert len(ranks) == ctx.order
    # scattered means every shifted map psi + m*id has kernel dim <= 1
    assert int(ranks.min()) == ctx.n - 1
    for m in (0, 1, ctx.omega):
        shifted = psi + LinPoly.monomial(ctx, m, 0)
        assert ranks[m] == shifted.rank()


def test_witness_search(ctx33, ctx53):
    psi = build_psi(ctx33, 1)
    found = nonscattered_witness_search(psi)
    assert found is not None
    rho, x = found
    assert x != 0 and ctx33.frob(rho, 1) != rho
    assert psi(ctx33.mul(rho, x)) == ctx33.mul(rho, psi(x))
    # scattered maps admit no such scaling pair
    assert nonscattered_witness_search(build_psi(ctx53, 1)) is None


def test_check_witness_rejects_bad_pairs(ctx33):
    psi = build_psi(ctx33, 1)
    assert not check_witness(psi, (0, 5))
    assert not check_witness(psi, (7, 0))
    # a GF(q)-multiple shares the fiber but is not a valid witness
    y = 1
    z = ctx33.mul(2, y)
    assert not check_witness(psi, (y, z))


def test_baer_partition(ctx53, ctx34):
    rep = baer_partition_check(ctx53, 1)
    assert rep.ok
    assert (rep.intersection_size, rep.subfield_part_size, rep.skew_part_size) \
        == (62, 31, 31)
    rep = baer_partition_check(ctx34, 1)
    assert rep.ok
    assert (rep.intersection_size, rep.subfield_part_size, rep.skew_part_size) \
        == (80, 40, 40)
    expected = 2 * (ctx34.q**ctx34.t - 1) // (ctx34.q - 1)
    assert rep.intersection_size == expected
    with pytest.raises(NotScattered):
        baer_partition_check(ctx34, 2)


def test_predicate_gcd_consistency(ctx34):
    # sanity: the even-t branch really only depends on gcd(k, t)
    for k in range(1, ctx34.n):
        assert theorem_predicate(ctx34, k) == (math.gcd(k, ctx34.t) == 1)


# -- cross-method invariants -------------------------------------------------

def _draw_poly(data, ctx):
    """psi_k, the zero map, a random map, a planted-kernel map f + m*id
    with m = -f(x0)/x0, or a map with coefficients in GF(p^d) for a drawn
    divisor d of e*n."""
    kind = data.draw(st.sampled_from(["psi", "zero", "random", "planted", "subfield"]))
    if kind == "psi":
        return build_psi(ctx, data.draw(st.integers(1, ctx.n - 1)))
    if kind == "zero":
        return LinPoly.zero(ctx)
    if kind == "subfield":
        d = data.draw(st.sampled_from([d for d in range(1, ctx.en + 1) if ctx.en % d == 0]))
        return _subfield_poly(ctx, d, data.draw(st.lists(
            st.integers(-1, ctx.p ** d - 2), min_size=ctx.n, max_size=ctx.n)))
    elem = st.one_of(st.just(0), st.just(1), st.integers(0, ctx.order - 1))
    f = LinPoly(ctx, data.draw(st.lists(elem, min_size=ctx.n, max_size=ctx.n)))
    if kind == "planted":
        x0 = data.draw(st.integers(1, ctx.order - 1))
        f = f + LinPoly.monomial(ctx, ctx.neg(ctx.div(f(x0), x0)), 0)
    return f


def _subfield_poly(ctx, d, js):
    """The map whose coefficient i is omega^(js[i] * (p^(e*n) - 1)/(p^d - 1)),
    an element of GF(p^d)*, or 0 where js[i] = -1."""
    step = ctx.mult_order // (ctx.p ** d - 1)
    return LinPoly(ctx, [ctx.gen_power(j * step) if j >= 0 else 0 for j in js])


def _check_deficient_shifts(ctx, f):
    # ker(f + m*id) != 0 iff -m is a value of f(x)/x, so the rank-deficient
    # shifts are exactly -L_f
    deficient = np.flatnonzero(shift_ranks(f) < ctx.n)
    vals = f.line_values()
    assert len(deficient) == len(vals)
    assert sorted(ctx.neg(int(m)) for m in deficient) == vals.tolist()


@pytest.mark.parametrize("pet", [(3, 1, 3), (5, 1, 3)])
@settings(max_examples=20)
@given(data=st.data())
def test_rank_deficient_shifts_are_minus_line_set(pet, data):
    ctx = build_field(*pet)
    _check_deficient_shifts(ctx, _draw_poly(data, ctx))


def test_rank_deficient_shifts_are_minus_line_set_q9(ctx923):
    # one example: the sweep ranks all 531441 shifts
    ctx = ctx923
    rng = np.random.default_rng(9)
    f = LinPoly(ctx, [int(c) for c in rng.integers(0, ctx.order, size=ctx.n)])
    x0 = int(rng.integers(1, ctx.order))
    _check_deficient_shifts(ctx, f + LinPoly.monomial(ctx, ctx.neg(ctx.div(f(x0), x0)), 0))


@pytest.mark.parametrize("pet", [(3, 1, 3), (5, 1, 3), (3, 2, 3)])
@settings(max_examples=12)
@given(data=st.data())
def test_fibers_ranks_and_witness_search_agree(pet, data):
    ctx = build_field(*pet)
    f = _draw_poly(data, ctx)
    hist = f.fiber_histogram()
    assert sum(size * mult for size, mult in hist.items()) == ctx.order - 1
    vf = is_scattered_fibers(f)
    # at q = 9 the two sweeps of a scattered map take about 0.4 s; the
    # scattered psi_1 and psi_5 there are pinned in
    # test_theorem_scattered_maps_at_q9_pass_all_three_checkers
    assume(ctx.order < 10 ** 5 or not vf.scattered)
    vr = is_scattered_ranks(f)
    found = nonscattered_witness_search(f)
    assert vf.scattered == vr.scattered == (found is None)
    assert vf.n_values == len(f.line_values()) == sum(hist.values())
    if not vf.scattered:
        assert check_witness(f, vf.witness) and check_witness(f, vr.witness)
        rho, x = found
        assert x and ctx.frob(rho, 1) != rho
        assert f(ctx.mul(rho, x)) == ctx.mul(rho, f(x))
        # -bad_shift is a value of f(x)/x whose fiber is too large
        assert ctx.neg(vr.bad_shift) in f.line_values()


# -- pins on the byte-sensitive spots ------------------------------------------

def _oracle_witness(f):
    """The fiber witness recomputed from scalar f(x)/x: the smallest value
    whose fiber exceeds q - 1 (np.unique sorts), y the first x of its fiber
    and z the first x there with z/y outside GF(q)."""
    ctx = f.ctx
    xs = np.arange(1, ctx.order, dtype=np.int64)
    vals = np.array([ctx.div(f(int(x)), int(x)) for x in xs], dtype=np.int64)
    uniq, counts = np.unique(vals, return_counts=True)
    v = uniq[np.flatnonzero(counts > ctx.q - 1)[0]]
    fiber = [int(x) for x in xs[vals == v]]
    y = fiber[0]
    z = next(x for x in fiber if not ctx.in_subfield(ctx.div(x, y)))
    return int(v), (y, z)


# at (3, 3) the oversized value of smallest index, 129, is not the one of
# smallest log, 231
@pytest.mark.parametrize("fixture,k", [("ctx34", 2), ("ctx33", 1)])
def test_fiber_witness_pinned_to_smallest_oversized_value(fixture, k, request):
    ctx = request.getfixturevalue(fixture)
    psi = build_psi(ctx, k)
    v, witness = _oracle_witness(psi)
    assert v != 0 and is_scattered_fibers(psi).witness == witness
    # psi_k - v*id maps the oversized fiber of v to 0, so there the kernel
    # fiber is the oversized one, and 0 is the smallest value
    planted = psi + LinPoly.monomial(ctx, ctx.neg(v), 0)
    assert planted.kernel_dim() >= 2
    v0, witness0 = _oracle_witness(planted)
    assert v0 == 0 and is_scattered_fibers(planted).witness == witness0


@pytest.mark.parametrize("fixture", ["ctx53", "ctx34", "ctx923"])
def test_halves_match_frobenius_masks(fixture, request):
    # with s = q^t + 1: GF(q^t)* is omega^j for j = 0 mod s, W* is omega^j
    # for j = s/2 mod s, against the Frobenius masks of every element
    ctx = request.getfixturevalue(fixture)
    s = ctx.q ** ctx.t + 1
    els = np.arange(1, ctx.order, dtype=np.int64)
    frobt = ctx.vfrob(els, ctx.t)
    logs = ctx.vlog(els)
    assert np.array_equal(logs % s == 0, frobt == els)
    assert np.array_equal(logs % s == s // 2, ctx.vadd(els, frobt) == 0)


def _baer_by_values(ctx, k):
    """baer_partition_check in the value domain: the halves as elements,
    their images by element-wise powers, and the subline by the
    q^t-Frobenius of the values of f(x)/x."""
    vals = build_psi(ctx, k).line_values()
    t, n, M = ctx.t, ctx.n, ctx.order
    if len(vals) != (M - 1) // (ctx.q - 1):
        raise NotScattered(f"psi_{k} is not scattered at q={ctx.q}, t={ctx.t}")
    s = ctx.q ** ctx.t + 1
    js = np.arange(0, ctx.mult_order, s, dtype=np.int64)
    sub, wstar = ctx.vgen_power(js), ctx.vgen_power(js + s // 2)
    part_sub = np.unique(ctx.vpow_int(sub, ctx.q ** ((t - k) % n) - 1))
    part_skew = np.unique(ctx.vpow_int(wstar, ctx.q ** (k % n) - 1))
    inter = vals[ctx.vfrob(vals, t) == vals]
    union = np.union1d(part_sub, part_skew)
    disjoint = len(np.intersect1d(part_sub, part_skew)) == 0
    covers = np.array_equal(np.sort(inter), union)
    return BaerReport(k, int(len(inter)), int(len(part_sub)),
                      int(len(part_skew)), bool(disjoint), bool(covers))


@pytest.mark.parametrize("pet", [(5, 1, 3), (3, 1, 4), (3, 2, 3), (5, 1, 4)])
def test_baer_exponents_match_values(pet):
    # every k: the report of each scattered psi_k, and NotScattered for the rest
    ctx = build_field(*pet)
    for k in range(1, ctx.n):
        try:
            want = _baer_by_values(ctx, k)
        except NotScattered:
            with pytest.raises(NotScattered):
                baer_partition_check(ctx, k)
            continue
        assert baer_partition_check(ctx, k) == want, k


# -- orbit sweeps against full-field passes -------------------------------------

def _full_field_fibers(f):
    """The f(x)/x pass over every nonzero x: log f(x) - log x for each x,
    q^n - 1 where f(x) = 0, and the fiber size of every bin."""
    ctx = f.ctx
    M = ctx.mult_order
    fx = f.eval_all()[1:]
    bins = (ctx._log[fx] - ctx._log[1:]) % M
    bins[fx == 0] = M
    return bins, np.bincount(bins, minlength=M + 1)


@pytest.mark.parametrize("pet", [(3, 1, 3), (5, 1, 3), (3, 2, 3), (3, 1, 4)])
@settings(max_examples=15)
@given(data=st.data())
def test_orbit_fiber_pass_matches_full_field_pass(pet, data):
    ctx = build_field(*pet)
    f = _draw_poly(data, ctx)
    bins, counts = _full_field_fibers(f)
    vals = ctx._exp[np.flatnonzero(counts[:-1])]
    if counts[-1]:
        vals = np.append(vals, 0)
    assert np.array_equal(f.line_values(), np.sort(vals))
    sizes = counts[counts > 0]
    assert f.fiber_histogram() == Counter(sizes.tolist())
    vf = is_scattered_fibers(f)
    assert vf.n_values == len(sizes)
    assert vf.scattered == (len(sizes) == (ctx.order - 1) // (ctx.q - 1))
    if vf.scattered:
        return
    # the fiber of 0 when it is too large, else the oversized value of
    # smallest index; y its first element, z the first with z/y outside GF(q)
    if counts[-1] > ctx.q - 1:
        v = 0
        fiber = np.flatnonzero(bins == ctx.mult_order) + 1
    else:
        big = np.flatnonzero(counts[:-1] > ctx.q - 1)
        b = big[np.argmin(ctx._exp[big])]
        v = int(ctx._exp[b])
        fiber = np.flatnonzero(bins == b) + 1
    y = int(fiber[0])
    z = next(int(x) for x in fiber if not ctx.in_subfield(ctx.div(int(x), y)))
    assert vf.witness == (y, z)
    assert ctx.div(f(y), y) == v


def _fibers_by_expansion(f):
    """The fiber pass with every class's bin: each orbit representative's
    bin b is expanded to b*p^(d*i) mod q^n - 1 for i below its class
    orbit's size, into an array of all R = (q^n - 1)/(q - 1) class bins,
    which np.unique sorts and counts. (occupied, sizes): the
    distinct bins ascending, the kernel's q^n - 1 last, and their fiber
    sizes, q - 1 times their numbers of classes."""
    ctx = f.ctx
    M = ctx.mult_order
    R = M // (ctx.q - 1)
    d = f.coeff_degree()
    js, sizes = map(np.concatenate, zip(*ctx.frobenius_orbits("classes", d)))
    fx = f.eval_vec(ctx.vgen_power(js))
    b = (ctx.vlog(fx) - js) % M
    kernel = fx == 0
    bins = [np.full(int(sizes[kernel].sum()), M, dtype=np.int64)]
    b, sizes = b[~kernel], sizes[~kernel]
    for i in range(ctx.en // d):
        bins.append(b[sizes > i] * pow(ctx.p, d * i, M) % M)
    occupied, counts = np.unique(np.concatenate(bins), return_counts=True)
    assert counts.sum() == R
    return occupied, counts * (ctx.q - 1)


def _outputs_by_expansion(f):
    """n_values, witness, line_values and fiber_histogram from
    _fibers_by_expansion: the witness is that of 0 when the kernel's fiber
    is oversized, else of the oversized value of smallest index."""
    ctx = f.ctx
    M = ctx.mult_order
    occupied, sizes = _fibers_by_expansion(f)
    values = np.where(occupied < M, ctx.vgen_power(occupied), 0)
    big = occupied[sizes > ctx.q - 1]
    witness = None
    if len(big):
        v = 0 if big[-1] == M else int(ctx.vgen_power(big).min())
        witness = _witness_in_fiber(ctx, f.matrix() - ctx._mult_matrix(v))
    hist = Counter(sizes.tolist())
    return len(occupied), witness, np.sort(values), hist


def _baer_by_expansion(ctx, k):
    """baer_partition_check on the bins of _fibers_by_expansion."""
    bins = _fibers_by_expansion(build_psi(ctx, k))[0]
    t, n, N = ctx.t, ctx.n, ctx.mult_order
    if len(bins) != N // (ctx.q - 1):
        raise NotScattered(f"psi_{k} is not scattered at q={ctx.q}, t={ctx.t}")
    s = ctx.q ** t + 1
    js = np.arange(0, N, s, dtype=np.int64)
    part_sub = np.unique(js * ((ctx.q ** ((t - k) % n) - 1) % N) % N)
    part_skew = np.unique((js + s // 2) * ((ctx.q ** (k % n) - 1) % N) % N)
    inter = bins[bins % s == 0]
    union = np.union1d(part_sub, part_skew)
    return BaerReport(k, len(inter), len(part_sub), len(part_skew),
                      len(np.intersect1d(part_sub, part_skew)) == 0,
                      bool(np.array_equal(inter, union)))


def _expansion_maps(ctx):
    """Every psi_k, three seeded sparse maps, two maps with kernels of
    GF(q)-dimension above 1 (x + x^(q^t), whose kernel is W, and 0), the
    monomials x^(q^i), whose bin orbits can be shorter than their class
    orbits, and at q = 9 two maps with coefficients in GF(3^2) and in
    GF(3^4), which have d = 2 and d = 4."""
    n, t = ctx.n, ctx.t
    maps = {f"psi_{k}": build_psi(ctx, k) for k in range(1, n)}
    rng = np.random.default_rng(ctx.order)
    for _ in range(3):
        coeffs = [0] * n
        for slot in rng.choice(n, size=int(rng.integers(2, 4)), replace=False):
            coeffs[int(slot)] = int(rng.integers(1, ctx.order))
        maps[f"sparse {coeffs}"] = LinPoly(ctx, coeffs)
    maps["x + x^(q^t)"] = LinPoly.identity(ctx) + LinPoly.monomial(ctx, 1, t)
    maps["0"] = LinPoly.zero(ctx)
    for i in range(n):
        maps[f"x^(q^{i})"] = LinPoly.monomial(ctx, 1, i)
    if ctx.q == 9:
        M = ctx.mult_order
        maps["GF(3^2) map"] = LinPoly(ctx, [0, ctx.gen_power(M // 8), 0, 1,
                                            ctx.gen_power(M // 8 * 3), 0])
        maps["GF(3^4) map"] = LinPoly(ctx, [0, ctx.gen_power(M // 8), 0,
                                            ctx.gen_power(M // 80 * 7), 1, 0])
    return maps


# every field with tables that the tier-1 run builds
@pytest.mark.parametrize("pet", [(3, 1, 3), (5, 1, 3), (3, 1, 4), (3, 1, 5),
                                 (5, 1, 4), (3, 2, 3), (13, 1, 3)])
def test_orbit_keyed_fibers_match_the_expansion(pet):
    ctx = build_field(*pet)
    R = ctx.mult_order // (ctx.q - 1)
    maps = _expansion_maps(ctx)
    assert {f.coeff_degree() for f in maps.values()} >= ({1, 2, 4} if ctx.q == 9 else {1})
    for label, f in maps.items():
        n_values, witness, values, hist = _outputs_by_expansion(f)
        vf = is_scattered_fibers(f)
        assert (vf.n_values, vf.witness) == (n_values, witness), label
        assert vf.scattered == (n_values == R), label
        assert np.array_equal(f.line_values(), values), label
        assert f.fiber_histogram() == hist, label
    for k in range(1, ctx.n):
        try:
            want = _baer_by_expansion(ctx, k)
        except NotScattered:
            with pytest.raises(NotScattered):
                baer_partition_check(ctx, k)
            continue
        assert baer_partition_check(ctx, k).to_json() == want.to_json(), k


def _brute_witness(f):
    """The first rho = omega^j outside GF(q), j ascending over every
    j < q^n - 1, with f(rho*x) = rho*f(x) for some nonzero x, and the
    smallest such x: each rho ranked through the coefficients of
    f(rho*x) - rho*f(x), each x tested pointwise."""
    ctx = f.ctx
    n, M = ctx.n, ctx.mult_order
    R = M // (ctx.q - 1)
    js = np.array([j for j in range(1, M) if j % R], dtype=np.int64)
    for lo in range(0, len(js), 4096):
        rhos = ctx._exp[js[lo:lo + 4096]]
        cols = np.array([ctx.vscale(f.coeffs[i], ctx.vsub(ctx.vfrob(rhos, i), rhos))
                         for i in range(n)])
        hit = np.flatnonzero(batch_dickson_rank(ctx, cols) < n)
        if len(hit):
            rho = int(rhos[hit[0]])
            xs = np.arange(1, ctx.order, dtype=np.int64)
            fx = f.eval_all()
            same = fx[ctx.vscale(rho, xs)] == ctx.vscale(rho, fx[1:])
            return rho, int(xs[np.flatnonzero(same)[0]])
    return None


@pytest.mark.parametrize("pet", [(3, 1, 3), (5, 1, 3), (3, 2, 3)])
@settings(max_examples=12)
@given(data=st.data())
def test_witness_search_matches_brute_force_over_every_rho(pet, data):
    ctx = build_field(*pet)
    f = _draw_poly(data, ctx)
    # at q = 9 the brute force over all 531440 rho of a scattered map
    # takes several seconds
    assume(ctx.order < 10 ** 5 or not is_scattered_fibers(f).scattered)
    assert nonscattered_witness_search(f) == _brute_witness(f)


@pytest.mark.parametrize("pet", [(3, 1, 3), (5, 1, 3), (3, 2, 3)])
@settings(max_examples=10)
@given(data=st.data())
def test_commutator_tensor_is_matrix_of_commutator(pet, data):
    ctx = build_field(*pet)
    f = _draw_poly(data, ctx)
    T = _commutator_tensor(f)
    rhos = data.draw(st.lists(st.integers(0, ctx.order - 1), min_size=1, max_size=8))
    mats = digit_contract(ctx, T, np.array(rhos, dtype=np.int64))
    for b, rho in enumerate(rhos):
        # f(rho*x) - rho*f(x) = sum_i f_i (rho^(q^i) - rho) x^(q^i)
        g = LinPoly(ctx, [ctx.mul(f.coeffs[i], ctx.sub(ctx.frob(rho, i), rho))
                          for i in range(ctx.n)])
        assert np.array_equal(mats[:, :, b], g.matrix())


@pytest.mark.parametrize("fixture", ["ctx53", "ctx34"])
def test_zero_map_verdicts_pinned(fixture, request, bare_field):
    # f = 0 has f(x)/x = 0 for every x: one value, whose fiber is the
    # kernel, the whole field. Its elements ascending start 1, 2, ..., and
    # with e = 1 GF(q) is the set of indices below p, so y = 1 and the first
    # z with z/y outside GF(q) is p. The shift 0 is the first, and its
    # kernel is the same. C_rho = 0 for every rho, so the first rho swept,
    # omega^1, hits, and the smallest nonzero element of its kernel is 1.
    ctx = request.getfixturevalue(fixture)
    f = LinPoly.zero(ctx)
    vf, vr = is_scattered_fibers(f), is_scattered_ranks(f)
    assert vf.n_values == 1 and vr.bad_shift == 0
    assert vf.witness == vr.witness == (1, ctx.p)
    assert nonscattered_witness_search(f) == (ctx.omega, 1)
    # the rank checker and its witness read no tables
    bare = bare_field(ctx.p, ctx.e, ctx.t)
    assert is_scattered_ranks(LinPoly.zero(bare)) == vr
    assert not bare.has_tables


def test_whole_field_passes_refuse_fields_above_the_table_limit():
    # 191^6 elements: each pass raises before it allocates, and a sweep
    # given its shifts still runs (psi_1 is invertible, with inverse psi_5)
    ctx = build_field(191, 1, 3)
    f = build_psi(ctx, 1)
    for call in (f.eval_all, f.line_values, lambda: shift_ranks(f),
                 lambda: is_scattered_ranks(f), lambda: is_scattered_fibers(f),
                 lambda: nonscattered_witness_search(f)):
        with pytest.raises(FieldTooLarge):
            call()
    assert shift_ranks(f, np.array([0], dtype=np.int64)).tolist() == [ctx.n]


# -- sweeps over sigma_d-orbit representatives -----------------------------------

def _frobenius_images(f):
    """sigma_d^i(x) for every x, row i for 0 <= i < e*n/d, sigma_d being
    x -> x^(p^d) with d = f.coeff_degree(), by the log tables."""
    ctx = f.ctx
    d = f.coeff_degree()
    rows = [np.arange(ctx.order, dtype=np.int64)]
    for _ in range(1, ctx.en // d):
        rows.append(ctx.vpow_int(rows[-1], ctx.p ** d))
    return np.array(rows)


@pytest.mark.parametrize("pet", [(3, 1, 3), (5, 1, 3), (3, 2, 3)])
@settings(max_examples=12)
@given(data=st.data())
def test_coeff_degree_is_the_smallest_coefficient_field(pet, data):
    ctx = build_field(*pet)
    f = _draw_poly(data, ctx)
    c = np.array(f.coeffs, dtype=np.int64)
    fixed = [d for d in range(1, ctx.en + 1)
             if ctx.en % d == 0 and np.array_equal(ctx.vpow_int(c, ctx.p ** d), c)]
    assert f.coeff_degree() == fixed[0]


def _draw_coset_poly(data, ctx):
    """A map whose support lies in one coset s + m*Z, m > 1 a drawn divisor
    of n and s prime to m, with coefficients in GF(p^d) for a drawn d: a
    monomial when one index is drawn. support_coset may find a larger m."""
    m = data.draw(st.sampled_from([m for m in range(2, ctx.n + 1) if ctx.n % m == 0]))
    s = data.draw(st.sampled_from([s for s in range(m) if math.gcd(s, m) == 1]))
    slots = data.draw(st.lists(st.sampled_from(range(s, ctx.n, m)), min_size=1, unique=True))
    d = data.draw(st.sampled_from([d for d in range(1, ctx.en + 1) if ctx.en % d == 0]))
    js = [-1] * ctx.n
    for i in slots:
        js[i] = data.draw(st.integers(0, ctx.p ** d - 2))
    return _subfield_poly(ctx, d, js)


def _shift_orbit_minima(f):
    """The least element of the orbit of every shift under sigma_d and,
    for m > 1 (f.support_coset()), the product by zeta of order
    G = (q^m - 1)/(q - 1), both as permutations by the log tables: the
    least label along every cycle of each generator, by pointer doubling,
    until no label changes."""
    ctx = f.ctx
    d, (m, _) = f.coeff_degree(), f.support_coset()
    G = (ctx.q ** m - 1) // (ctx.q - 1)
    xs = np.arange(ctx.order, dtype=np.int64)
    gens = [(ctx.vpow_int(xs, ctx.p ** d), ctx.en // d)]
    if G > 1:
        gens.append((ctx.vscale(ctx.gen_power(ctx.mult_order // G), xs), G))
    labels = xs
    while True:
        old = labels
        for perm, order in gens:
            for _ in range(order.bit_length()):
                labels = np.minimum(labels, labels[perm])
                perm = perm[perm]
        if np.array_equal(labels, old):
            return labels


@pytest.mark.parametrize("pet", [(3, 1, 3), (5, 1, 3), (3, 2, 3)])
@settings(max_examples=12)
@given(data=st.data())
def test_shift_orbits_are_the_frobenius_orbit_minima(pet, data):
    # the sweep keeps x iff x is the least of its orbit under sigma_d and,
    # for maps with m > 1, the product by mu_G, with the number of
    # elements of its orbit; and the ranks are constant on the orbits
    ctx = build_field(*pet)
    f = _draw_poly(data, ctx) if data.draw(st.booleans()) else _draw_coset_poly(data, ctx)
    labels = _shift_orbit_minima(f)
    reps = np.flatnonzero(labels == np.arange(ctx.order))
    ms, sizes = map(np.concatenate, zip(*shift_orbits(f)))
    assert np.array_equal(ms, reps)
    assert np.array_equal(sizes, np.bincount(labels)[reps])
    assert sizes.sum(dtype=np.int64) == ctx.order
    if ctx.order < 10 ** 5:
        ranks = shift_ranks(f)
        assert (ranks[labels] == ranks).all()


# (d, exponents for _subfield_poly) of a map whose first hit in the
# witness search, omega^21 at (3, 3) and omega^15 at (5, 3), is not the
# smallest of its x -> x^p orbit: found by a scan over sparse maps
_OFF_SIGMA1 = {"ctx33": (3, [-1, 8, -1, -1, 22, -1]),
               "ctx53": (2, [-1, 9, -1, 23, -1, 21])}


@pytest.mark.parametrize("fixture", ["ctx33", "ctx53"])
def test_orbit_sweeps_on_subfield_maps(fixture, request):
    # maps with one to three coefficients in GF(p^d), for each d strictly
    # between 1 and e*n, where sigma_d is neither x -> x^p nor the identity:
    # the rank checker against the full shift sweep, the witness search
    # against every rho
    ctx = request.getfixturevalue(fixture)
    R = ctx.mult_order // (ctx.q - 1)
    rng = np.random.default_rng(ctx.order + 1)
    maps = [_subfield_poly(ctx, *_OFF_SIGMA1[fixture])]
    for d in (2, 3):
        for _ in range(8):
            js = np.full(ctx.n, -1)
            slots = rng.choice(ctx.n, size=int(rng.integers(1, 4)), replace=False)
            js[slots] = rng.integers(0, ctx.p ** d - 1, size=len(slots))
            maps.append(_subfield_poly(ctx, d, js))
    for f in maps:
        bad = np.flatnonzero(shift_ranks(f) < ctx.n - 1)
        assert is_scattered_ranks(f).bad_shift == (int(bad[0]) if len(bad) else None)
        assert nonscattered_witness_search(f) == _brute_witness(f)
    # a sweep over x -> x^p orbits would skip the pinned map's first hit
    j = int(ctx._log[_brute_witness(maps[0])[0]])
    assert maps[0].coeff_degree() > 1
    assert any(j * pow(ctx.p, i, R) % R < j for i in range(1, ctx.en))


@pytest.mark.parametrize("fixture", ["ctx33", "ctx53", "ctx34", "ctx923"])
def test_bad_shift_is_the_first_of_the_full_sweep(fixture, request, full_shift_ranks):
    ctx = request.getfixturevalue(fixture)
    for k in range(1, ctx.n):
        f = build_psi(ctx, k)
        full = full_shift_ranks(f)
        assert (full[_frobenius_images(f)] == full).all()
        bad = np.flatnonzero(full < ctx.n - 1)
        vr = is_scattered_ranks(f)
        assert vr.bad_shift == (int(bad[0]) if len(bad) else None)
        assert vr.scattered == theorem_predicate(ctx, k)


@pytest.mark.parametrize("fixture", ["ctx33", "ctx53", "ctx34", "ctx923"])
def test_cut_sweeps_match_the_uncut_ones(fixture, request, full_shift_ranks, cut_maps):
    # the rank checker over the orbits of sigma_d and mu_G against the
    # full shift sweep, and the witness search over the orbits of
    # j -> j*p^d and j -> -j against every rho
    ctx = request.getfixturevalue(fixture)
    maps = cut_maps(ctx)
    assert any(f.support_coset()[0] == ctx.n for f in maps.values())
    assert sum(f.support_coset()[0] == 2 for f in maps.values()) >= 3
    for label, f in maps.items():
        full = full_shift_ranks(f)
        bad = np.flatnonzero(full < ctx.n - 1)
        vr = is_scattered_ranks(f)
        assert vr.bad_shift == (int(bad[0]) if len(bad) else None), label
        vf = is_scattered_fibers(f)
        assert vr.scattered == vf.scattered, label
        if not vr.scattered:
            assert check_witness(f, vr.witness), label
        found = nonscattered_witness_search(f)
        # at q = 9 the brute force over all 531440 rho of a scattered map
        # takes seconds; the fiber count proves that no pair exists
        if ctx.order < 10 ** 5 or not vf.scattered:
            assert found == _brute_witness(f), label
        else:
            assert found is None, label


@pytest.mark.parametrize("k", [1, 5])
def test_theorem_scattered_maps_at_q9_pass_all_three_checkers(ctx923, k):
    # t = 3 is odd, gcd(k, 6) = 1 and q = 9 = 1 mod 4: the theorem proves
    # psi_k scattered, so f(x)/x takes (q^n - 1)/(q - 1) values
    ctx = ctx923
    assert theorem_predicate(ctx, k)
    f = build_psi(ctx, k)
    vf = is_scattered_fibers(f)
    assert vf.scattered and vf.n_values == (9 ** 6 - 1) // 8
    assert is_scattered_ranks(f) == ScatterVerdict(True, "ranks")
    assert nonscattered_witness_search(f) is None
