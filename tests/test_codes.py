import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatpoly.acceptance import _delsarte
from scatpoly.errors import BadHypotheses, CtxMismatch
from scatpoly import linalg
from scatpoly.fields import build_field
from scatpoly.codes import (
    _structure_constants,
    adjoint_code,
    build_code,
    code_equivalent,
    count_new_codes,
    idealiser,
    is_mrd,
    min_rank_distance,
    rank_distribution,
)
from scatpoly.linpoly import LinPoly, poly_vec, vec_poly
from scatpoly.scattered import build_psi, shift_orbits, shift_ranks, theorem_predicate


def test_code_basics(ctx33):
    ctx = ctx33
    code = build_code(build_psi(ctx, 1))
    assert not code.degenerate
    assert code.size == ctx.order**2
    scalar = build_code(LinPoly.monomial(ctx, 5, 0))
    assert scalar.degenerate and scalar.size == ctx.order
    with pytest.raises(AttributeError):
        code.f = None
    with pytest.raises(CtxMismatch):
        from scatpoly.fields import build_field
        code_equivalent(code, build_code(build_psi(build_field(5, 1, 3), 1)))


def test_code_equality_is_span_equality(ctx33):
    ctx = ctx33
    f = build_psi(ctx, 1)
    ident = LinPoly.identity(ctx)
    g = f.scale(7) + ident.scale(11)
    assert build_code(f) == build_code(g)
    assert hash(build_code(f)) == hash(build_code(g))
    assert build_code(f) != build_code(build_psi(ctx, 2))


def test_rank_distribution_totals(ctx33):
    ctx = ctx33
    code = build_code(build_psi(ctx, 1))
    dist = rank_distribution(code)
    assert dist.total == ctx.order**2
    assert dist[0] == 1
    # every nonzero rank class comes in q^n - 1 scalar multiples
    assert all(c % (ctx.order - 1) == 0 for c in dist.counts[1:])
    assert dist[ctx.n] >= ctx.order - 1  # the identity span sits at full rank
    assert dist.csv_rows()[0] == (0, 1)
    assert dist.to_json()["total"] == dist.total


@pytest.mark.parametrize("pet", [(3, 1, 3), (5, 1, 3)])
@settings(max_examples=10)
@given(data=st.data())
def test_rank_distribution_sums_to_code_size(pet, data):
    ctx = build_field(*pet)
    kind = data.draw(st.sampled_from(["psi", "random", "scalar"]))
    if kind == "psi":
        f = build_psi(ctx, data.draw(st.integers(1, ctx.n - 1)))
    elif kind == "scalar":
        f = LinPoly.monomial(ctx, data.draw(st.integers(0, ctx.order - 1)), 0)
    else:
        elem = st.integers(0, ctx.order - 1)
        f = LinPoly(ctx, data.draw(st.lists(elem, min_size=ctx.n, max_size=ctx.n)))
    dist = rank_distribution(build_code(f))
    # one count for every pair (a, b) of a*f + b*id
    assert sum(dist.counts) == ctx.order ** 2 == ctx.q ** (2 * ctx.n)
    # a*f + b*id with a != 0 is singular iff -b/a is a value of f(x)/x;
    # with a = 0 only the zero word is
    assert sum(dist.counts[:ctx.n]) - 1 == (ctx.order - 1) * len(f.line_values())


def _class_tally(ctx, tally):
    """The distribution from tally[r], the number of shifts b of rank r:
    q^n - 1 scalings of each class (1, b), the class (0, 1) at full rank,
    and the zero word."""
    counts = [(ctx.order - 1) * int(c) for c in tally]
    counts[0] += 1
    counts[ctx.n] += ctx.order - 1
    return tuple(counts)


def _full_tally(ctx, ranks):
    """The distribution read off the rank of every shift, with no orbit
    reduction."""
    return _class_tally(ctx, np.bincount(ranks, minlength=ctx.n + 1))


def _swept_tally(f):
    """The distribution from the shift sweep: one shift per orbit under
    sigma_d and mu_G (shift_orbits) is ranked, and counted once per element
    of its orbit, the orbit's size coming by orbit-stabilizer."""
    tally = np.zeros(f.ctx.n + 1, dtype=np.int64)
    for ms, sizes in shift_orbits(f):
        np.add.at(tally, shift_ranks(f, ms), sizes)
    return _class_tally(f.ctx, tally)


def _assert_three_tallies(f, full_shift_ranks, label=None):
    # the fiber tally of rank_distribution, the orbit sweep and the rank
    # of every shift
    ctx = f.ctx
    got = rank_distribution(build_code(f)).counts
    assert got == _swept_tally(f), label
    assert got == _full_tally(ctx, full_shift_ranks(f)), label


@pytest.mark.parametrize("fixture,ds", [("ctx33", (1, 2, 3, 6)), ("ctx53", (1, 2, 3, 6)),
                                        ("ctx923", (2,))])
def test_rank_distribution_matches_the_full_shift_tally(fixture, ds, request, full_shift_ranks):
    # every psi_k, and maps with coefficients in GF(p^d): omega^(j*s) with
    # s = (p^(e*n) - 1)/(p^d - 1) lies in GF(p^d)
    ctx = request.getfixturevalue(fixture)
    rng = np.random.default_rng(ctx.order)
    maps = [build_psi(ctx, k) for k in range(1, ctx.n)]
    for d in ds:
        s = ctx.mult_order // (ctx.p ** d - 1)
        js = rng.integers(0, ctx.p ** d - 1, size=ctx.n)
        maps.append(LinPoly(ctx, [ctx.gen_power(int(j) * s) for j in js]))
        assert d % maps[-1].coeff_degree() == 0
    for f in maps:
        _assert_three_tallies(f, full_shift_ranks, f)


@pytest.mark.parametrize("fixture", ["ctx33", "ctx53", "ctx34", "ctx923"])
def test_rank_distribution_on_cut_maps_matches_the_full_shift_tally(fixture, request,
                                                                    full_shift_ranks, cut_maps):
    # the maps on which the shift sweep cuts by sigma_d and mu_G, and the
    # zero map (one fiber, the kernel, of every nonzero x), 2*id (one
    # value) and x + x^(q^t) (whose kernel is W): the three tallies agree
    ctx = request.getfixturevalue(fixture)
    maps = {**cut_maps(ctx), "0": LinPoly.zero(ctx), "2*id": LinPoly.monomial(ctx, 2, 0),
            "x + x^(q^t)": LinPoly.identity(ctx) + LinPoly.monomial(ctx, 1, ctx.t)}
    for label, f in maps.items():
        _assert_three_tallies(f, full_shift_ranks, label)


def test_min_distance_known_values(ctx33, ctx53):
    # single Frobenius maps give classical codes of distance n - 1
    mono = build_code(LinPoly.monomial(ctx33, 1, 1))
    assert min_rank_distance(mono) == ctx33.n - 1
    assert is_mrd(mono)
    psi53 = build_code(build_psi(ctx53, 1))
    assert min_rank_distance(psi53) == ctx53.n - 1
    assert is_mrd(psi53)
    assert psi53.size == ctx53.q ** (ctx53.n * 2)


def test_mrd_iff_scattered(ctx33, ctx34):
    for ctx in (ctx33, ctx34):
        for k in range(1, ctx.n):
            if k == ctx.t:
                continue  # psi_t is the degree-t Frobenius, d = n - 1 always
            code = build_code(build_psi(ctx, k))
            assert is_mrd(code) == theorem_predicate(ctx, k)


@pytest.mark.parametrize("fixture", ["ctx33", "ctx53", "ctx34", "ctx923"])
def test_mrd_codes_have_delsartes_distribution(fixture, request, cut_maps):
    # an MRD code's distribution depends on n, q and d alone (Delsarte
    # 1978); among the maps are MRD codes (the scattered psi_k, x^q) and
    # codes of distance below n - 1 (x^(q^2) at n = 6, the odd maps)
    ctx = request.getfixturevalue(fixture)
    mrd = _delsarte(ctx.n, ctx.q, ctx.n - 1)
    assert sum(mrd) == ctx.q ** (2 * ctx.n)
    kinds = set()
    for label, f in cut_maps(ctx).items():
        code = build_code(f)
        kinds.add(is_mrd(code))
        assert (rank_distribution(code).counts == mrd) == is_mrd(code), label
    assert kinds == {True, False}


def test_degenerate_code_distance(ctx33):
    code = build_code(LinPoly.monomial(ctx33, 2, 0))
    dist = rank_distribution(code)
    assert dist.total == ctx33.order**2
    assert min_rank_distance(code) == ctx33.n
    assert not is_mrd(code)


def test_adjoint_code_preserves_distribution(ctx33, ctx53, ctx34, ctx923, cut_maps):
    # under the trace form x -> c*x is its own adjoint, so f + c*id and
    # f^ + c*id are transposes, of one rank for every c: the adjoint code
    # has the same distribution (Sheekey 2016)
    for ctx in (ctx33, ctx53, ctx34, ctx923):
        for label, f in cut_maps(ctx).items():
            code = build_code(f)
            adj = adjoint_code(code)
            assert rank_distribution(adj).counts == rank_distribution(code).counts, label
            assert adjoint_code(adj) == code, label


def test_code_equivalent_scaling(ctx33):
    f = build_psi(ctx33, 1)
    c1 = build_code(f)
    cert = code_equivalent(c1, build_code(f.scale(5)))
    assert cert is not None and cert.verify(f, f.scale(5))


def test_modp_action_matrix(ctx923):
    # the GF(p)-matrix of f, from its pointwise images and from one column
    # of the batched kernel
    ctx = ctx923
    rng = np.random.default_rng(41)
    f = LinPoly(ctx, [int(c) for c in rng.integers(0, ctx.order, size=ctx.n)])
    mat = f.matrix()
    col = linalg.qpoly_matrices(ctx, np.array(f.coeffs, dtype=np.int64)[:, None])
    assert col.shape == (ctx.en, ctx.en, 1)
    assert np.array_equal(col[:, :, 0], mat)
    assert mat.shape == (ctx.en, ctx.en)
    # matrix acts on prime-field digit vectors exactly as f acts on elements
    for x in (1, ctx.omega, ctx.order - 2):
        digs = np.array(ctx.digits(x), dtype=np.int64)
        out = mat @ digs % ctx.p
        assert ctx.from_digits([int(v) for v in out]) == f(x)
    # prime-field rank is e times the GF(q)-rank of the map
    _, piv = linalg.modp_rref(mat, ctx.p)
    assert len(piv) == ctx.e * f.rank()


def test_left_idealiser_is_big_field(ctx53):
    code = build_code(build_psi(ctx53, 1))
    rep = idealiser(code, side="left")
    assert rep.side == "left"
    assert rep.dim_q == ctx53.n
    assert rep.dim_p == ctx53.e * ctx53.n
    assert rep.closed and rep.commutative and rep.contains_identity
    assert rep.all_invertible
    assert rep.is_field
    obj = rep.to_json()
    assert obj["dim_q"] == ctx53.n and obj["is_field"]


def test_right_idealiser_is_small_field(ctx53):
    code = build_code(build_psi(ctx53, 1))
    rep = idealiser(code, side="right")
    assert rep.side == "right"
    # a field of q^2 elements; at t = 3 the solve's basis is {id, gamma*psi},
    # so it does not act as GF(q^2)-scalars
    assert rep.dim_q == 2
    assert rep.is_field
    with pytest.raises(ValueError):
        idealiser(code, side="middle")


def test_idealiser_skip_flags(ctx53):
    code = build_code(build_psi(ctx53, 2))
    rep = idealiser(code, side="left", check_flags=False)
    assert rep.dim_q == ctx53.n
    assert rep.closed is None and rep.all_invertible is None
    assert rep.is_field is None


@pytest.mark.parametrize("pet", [(3, 1, 3), (3, 2, 3)])
def test_idealisers_need_no_tables(pet, bare_field):
    ctx, bare = build_field(*pet), bare_field(*pet)
    for k in range(1, ctx.n):
        for side in ("left", "right"):
            want = idealiser(build_code(build_psi(ctx, k)), side)
            got = idealiser(build_code(build_psi(bare, k)), side)
            assert got.to_json() == want.to_json()
            if ctx.q == 9 and k in (1, 5):
                # scattered, as t is odd, gcd(k, 2t) = 1 and q = 1 (mod 4):
                # the code is MRD, so both idealisers are fields (LTZ 2017)
                assert got.is_field is True
            if ctx.q == 9 and k == ctx.t and side == "left":
                # x + x^(q^t) lies in the code of psi_t(x) = x^(q^t)
                assert got.all_invertible is False
    assert not bare.has_tables


def test_count_new_codes():
    assert count_new_codes(5, 3) == ([1], 1)
    assert count_new_codes(13, 3) == ([1], 1)
    assert count_new_codes(3, 4) == ([1, 3], 2)
    assert count_new_codes(5, 5) == ([1, 3], 2)
    ks, total = count_new_codes(9, 7)
    assert ks == [1, 3, 5] and total == 3
    # the count is Euler's phi of 2t halved
    assert len(ks) == total


def test_count_new_codes_hypotheses():
    with pytest.raises(BadHypotheses):
        count_new_codes(5, 2)
    with pytest.raises(BadHypotheses):
        count_new_codes(4, 3)
    with pytest.raises(BadHypotheses):
        count_new_codes(15, 3)
    with pytest.raises(BadHypotheses):
        count_new_codes(3, 3)  # odd t needs q = 1 mod 4


def test_idealiser_flags_on_a_large_idealiser(ctx53):
    # psi_t(x) = x^(q^t), so the code {a x^(q^t) + b x} is its own left
    # idealiser: 5^12 elements, among them x + x^(q^t), which kills W
    rep = idealiser(build_code(build_psi(ctx53, ctx53.t)), "left")
    assert rep.dim_p == 2 * ctx53.n
    assert rep.all_invertible is False and rep.is_field is False


def _all_invertible_by_enumeration(rep):
    """Whether every nonzero GF(p)-combination of the idealiser's basis has
    full Dickson rank, by ranking all p^dim_p - 1 of them, slab by slab, up
    to the first singular one."""
    ctx = rep.basis[0].ctx
    p, en = ctx.p, ctx.en
    xi = poly_vec(ctx, [b.coeffs for b in rep.basis])
    for lo, hi in linalg.sweep_slices(p ** rep.dim_p - 1):
        idx = np.arange(lo + 1, hi + 1, dtype=np.int64)
        vecs = linalg.mod_p_product(xi.T, linalg.digit_planes(idx, p, rep.dim_p), p)
        coeffs = linalg.plane_indices(vecs.reshape(ctx.n, en, -1).swapaxes(0, 1), p)
        if (linalg.batch_dickson_rank(ctx, coeffs) < ctx.n).any():
            return False
    return True


def _flag_maps(ctx, rng):
    """Every psi_k; sparse random maps; maps with coefficients in GF(p^d),
    omega^(j*s) with s = (p^(e*n) - 1)/(p^d - 1), for every d | e*n;
    x + x^(q^t), x^(q^t), 0, id and a nilpotent map."""
    maps = [build_psi(ctx, k) for k in range(1, ctx.n)]
    for _ in range(4):
        coeffs = [0] * ctx.n
        for i in rng.choice(ctx.n, size=2, replace=False):
            coeffs[int(i)] = int(rng.integers(1, ctx.order))
        maps.append(LinPoly(ctx, coeffs))
    for d in range(1, ctx.en + 1):
        if ctx.en % d == 0:
            s = ctx.mult_order // (ctx.p ** d - 1)
            js = rng.integers(0, ctx.p ** d - 1, size=ctx.n)
            maps.append(LinPoly(ctx, [ctx.gen_power(int(j) * s) for j in js]))
    frob_t = LinPoly.monomial(ctx, 1, ctx.t)
    ident = LinPoly.identity(ctx)
    # k*(x - x^(q^t)) with k^(q^t) = -k squares to 0, and so does its
    # conjugate by id + c*Tr(x), Tr(c) = 0 (whose inverse is id - c*Tr(x)):
    # a nilpotent map whose right idealiser has nilpotents
    k = next(k for k in range(1, ctx.order) if ctx.frob(k, ctx.t) == ctx.neg(k))
    tr = LinPoly(ctx, [1] * ctx.n)
    trace = tr.scale(next(c for c in range(2, ctx.order) if tr(c) == 0))
    f = LinPoly.monomial(ctx, k, 0) - LinPoly.monomial(ctx, k, ctx.t)
    nil = (ident + trace).compose(f).compose(ident - trace)
    assert nil.compose(nil).is_zero()
    return maps + [ident + frob_t, frob_t, LinPoly.zero(ctx), ident, nil]


def _right_matrix(f):
    """R_f, with poly_vec(h o f) = R_f poly_vec(h): column i*e*n + d is
    poly_vec(p^d x^(q^i) o f), p^d being the element x^d."""
    ctx = f.ctx
    return poly_vec(ctx, [LinPoly.monomial(ctx, ctx.p ** d, i).compose(f).coeffs
                          for i in range(ctx.n) for d in range(ctx.en)]).T


def _idealiser_by_every_block(code, side):
    """An idealiser's basis from the full system: the block K R_c (left)
    or K L_c (right) for every c = p^d * f and p^d * id of the code's
    GF(p)-basis, in int64 products."""
    ctx = code.ctx
    p = ctx.p
    ident = LinPoly.identity(ctx)
    gens = [g.scale(p ** d) for d in range(ctx.en) for g in (code.f, ident)]
    K = linalg.modp_nullspace(poly_vec(ctx, [g.coeffs for g in gens]), p)
    A = np.concatenate([K @ (_right_matrix(c) if side == "left" else c.left_matrix())
                        .astype(np.int64) % p for c in gens])
    assert len(A) == 2 * ctx.en * len(K)
    return [list(vec_poly(ctx, v).coeffs) for v in linalg.modp_nullspace(A, p)]


def _oracle_maps(ctx, rng):
    """_flag_maps, plus 2*id (a degenerate code) and a full-support map."""
    full = LinPoly(ctx, [int(c) for c in rng.integers(1, ctx.order, size=ctx.n)])
    return _flag_maps(ctx, rng) + [LinPoly.monomial(ctx, 2, 0), full]


def _assert_matches_the_full_system(pet, side, seed):
    ctx = build_field(*pet)
    for f in _oracle_maps(ctx, np.random.default_rng(ctx.order + seed)):
        code = build_code(f)
        want = _idealiser_by_every_block(code, side)
        for flags in (True, False):
            rep = idealiser(code, side, check_flags=flags)
            assert [list(b.coeffs) for b in rep.basis] == want, (f, flags)
            assert rep.dim_p == len(want)
            assert (rep.closed is None) == (not flags)


# the solve takes phi in the code's GF(p)-span and, on each side, only the
# blocks that suffice; every K R_c or K L_c over the full n*e*n digits of
# phi must give the same basis, with the field flags on and off (off at
# q = 9 is what the benchmark's left solves run)
@pytest.mark.parametrize("pet", [(5, 1, 3), (3, 1, 4), (3, 2, 3), (3, 1, 3)])
def test_right_idealiser_matches_the_full_system(pet):
    _assert_matches_the_full_system(pet, "right", 1)


def test_left_idealiser_matches_the_full_system():
    for pet in ((3, 1, 3), (5, 1, 3), (3, 1, 4), (3, 2, 3)):
        _assert_matches_the_full_system(pet, "left", 2)


@pytest.mark.parametrize("pet", [(3, 1, 3), (3, 1, 4), (3, 2, 3)])
def test_structure_constants_match_the_left_matrices(pet):
    ctx = build_field(*pet)
    p = ctx.p
    for f in _oracle_maps(ctx, np.random.default_rng(ctx.order + 3)):
        for side in ("left", "right"):
            basis = idealiser(build_code(f), side, check_flags=False).basis
            xi = poly_vec(ctx, [b.coeffs for b in basis])
            want = np.stack([u.left_matrix() @ xi.T % p for u in basis])
            assert np.array_equal(_structure_constants(ctx, xi), want), (f, side)


def test_idealiser_solves_in_the_codes_span(monkeypatch):
    # the unknowns are the 2*e*n coordinates over the code's GF(p)-basis,
    # so no elimination of a solve has more pivots than that, where a left
    # system over all n*e*n digits of phi has 60 at q = 9
    ctx = build_field(3, 2, 3)
    most = []
    rref = linalg.modp_rref

    def counted(mat, p):
        out = rref(mat, p)
        most.append(len(out[1]))
        return out
    monkeypatch.setattr(linalg, "modp_rref", counted)
    for k in range(1, ctx.n):
        for side in ("left", "right"):
            for flags in (True, False):
                idealiser(build_code(build_psi(ctx, k)), side, check_flags=flags)
    assert most and max(most) <= 2 * ctx.en


def test_all_invertible_matches_the_enumeration():
    # the flag is read off the structure constants; the enumeration ranks
    # every nonzero element. Among the idealisers compared are commutative
    # non-fields, both split (the right idealiser of psi_1 at q = 3, 7 with
    # t = 3: its code is not MRD) and with nilpotents (that of the nilpotent
    # map), and non-commutative ones (x^(q^t) spans its own)
    kinds = set()
    for pet in ((3, 1, 3), (5, 1, 3), (3, 1, 4), (7, 1, 3)):
        ctx = build_field(*pet)
        for f in _flag_maps(ctx, np.random.default_rng(ctx.order)):
            for side in ("left", "right"):
                rep = idealiser(build_code(f), side)
                assert rep.closed and rep.contains_identity
                if ctx.p ** rep.dim_p <= 1 << 21:  # enumerable
                    assert rep.all_invertible == _all_invertible_by_enumeration(rep), (f, side)
                    kinds.add((rep.commutative, rep.all_invertible))
    assert (True, False) in kinds and (False, False) in kinds


def test_idealiser_field_flag_at_5_4_matches_the_enumeration():
    # psi_1 at (5, 4) is scattered, so its code is MRD and the left
    # idealiser is a field (Lunardon-Trombetti-Zhou 2017); the enumeration
    # ranks all 5^8 - 1 nonzero elements, in several slabs
    ctx = build_field(5, 1, 4)
    rep = idealiser(build_code(build_psi(ctx, 1)), "left")
    assert rep.all_invertible is True and rep.is_field is True
    assert _all_invertible_by_enumeration(rep) is True
