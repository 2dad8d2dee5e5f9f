import numpy as np
import pytest

from scatpoly.errors import BadK, CtxMismatch, NotDisjointFromSigma
from scatpoly.fields import build_field
from scatpoly.geometry import (
    ProjSubspace,
    apply_sigma,
    apply_sigma_point,
    gamma_k,
    intersect,
    intn,
    join_point,
    meets_sigma_orbit,
    orbit_subspace,
    project_to_line,
    projection_slopes,
    pseudoregulus_geometric_test,
    sigma_point,
)
from scatpoly.scattered import build_psi


def test_canonical_equations(ctx34):
    ctx = ctx34
    rows = [[0, 2, 0, 0, 0, 0, 0, 0], [5, 1, 0, 0, 0, 0, 0, 0]]
    s = ProjSubspace(ctx, rows)
    t = ProjSubspace(ctx, [s.equations[1], s.equations[0]])
    assert s == t and hash(s) == hash(t)
    # leading entries are normalized to one
    for row in s.equations:
        lead = next(c for c in row if c)
        assert lead == 1
    assert s.projdim == ctx.n - 3
    assert s.ambient == ctx.n


def test_basis_solves_equations(ctx34):
    ctx = ctx34
    g = gamma_k(ctx, 1)
    assert g.projdim == ctx.n - 3
    assert len(g.basis) == ctx.n - 2
    for vec in g.basis:
        assert g.contains_point(vec)
    outside = [1] + [0] * (ctx.n - 1)
    assert not g.contains_point(outside)
    # rebuilding from the basis reproduces the subspace
    assert ProjSubspace.from_basis(ctx, g.basis) == g


def test_whole_space_and_json(ctx34):
    ctx = ctx34
    whole = ProjSubspace(ctx, [])
    assert whole.projdim == ctx.n - 1
    assert len(whole.basis) == ctx.n
    obj = gamma_k(ctx, 1).to_json()
    assert obj["projdim"] == ctx.n - 3
    assert obj["ambient"] == ctx.n
    assert len(obj["basis"]) == ctx.n - 2


def test_sigma_point_orbit(ctx34):
    ctx = ctx34
    u = ctx.omega
    pt = sigma_point(ctx, u)
    assert pt[0] == u and pt[3] == ctx.frob(u, 3)
    # embedded points are exactly the fixed points of the collineation
    assert tuple(apply_sigma_point(ctx, pt, 1)) == tuple(pt)
    # a generic point moves, and n applications return it
    e0 = [1] + [0] * (ctx.n - 1)
    moved = apply_sigma_point(ctx, e0, 1)
    assert tuple(moved) != tuple(e0)
    cur = list(e0)
    for _ in range(ctx.n):
        cur = apply_sigma_point(ctx, cur, 1)
    assert tuple(cur) == tuple(e0)
    # one step of the inverse power undoes one forward step
    assert tuple(apply_sigma_point(ctx, moved, ctx.n - 1)) == tuple(e0)


def test_apply_sigma_preserves_membership(ctx34):
    ctx = ctx34
    g = gamma_k(ctx, 1)
    for m in (1, 2, 5):
        gm = apply_sigma(g, m)
        assert gm.projdim == g.projdim
        for vec in g.basis:
            assert gm.contains_point(apply_sigma_point(ctx, vec, m))
    assert apply_sigma(g, ctx.n) == g


def test_gamma_k_requires_coprime(ctx34):
    with pytest.raises(BadK):
        gamma_k(ctx34, 2)
    with pytest.raises(BadK):
        gamma_k(ctx34, 0)
    assert gamma_k(ctx34, 1) != gamma_k(ctx34, 3)


def test_intersect_and_join(ctx34):
    ctx = ctx34
    g = gamma_k(ctx, 1)
    g1 = apply_sigma(g, 1)
    both = intersect(g, g1)
    assert both.projdim == ctx.n - 5
    assert intersect(g, g) == g
    # joining a basis point back changes nothing; a fresh point grows dim by 1
    assert join_point(both, g.basis[0]).projdim == both.projdim + 1
    from scatpoly.fields import build_field
    other = build_field(5, 1, 3)
    with pytest.raises(CtxMismatch):
        intersect(g, gamma_k(other, 1))


def test_self_intersection_chain(ctx34):
    ctx = ctx34
    g = gamma_k(ctx, 1)
    d1 = intersect(g, apply_sigma(g, 1)).projdim
    d2 = intersect(g, apply_sigma(g, 1), apply_sigma(g, 2)).projdim
    assert (d1, d2) == (3, 1)


def test_meets_sigma_orbit(ctx34):
    ctx = ctx34
    g = gamma_k(ctx, 1)
    assert meets_sigma_orbit(g) is None
    # a subspace through an embedded point is flagged with a witness
    bad = join_point(g, sigma_point(ctx, 1))
    u = meets_sigma_orbit(bad)
    assert u is not None
    assert bad.contains_point(sigma_point(ctx, u))


@pytest.mark.parametrize("fixture", ["ctx33", "ctx34"])
def test_meets_sigma_orbit_finds_the_smallest_u(fixture, request):
    ctx = request.getfixturevalue(fixture)
    rng = np.random.default_rng(12)
    u0, u1 = (int(u) for u in rng.integers(2, ctx.order, size=2))
    # P_(a*u0 + b*u1) = a*P_u0 + b*P_u1 for a, b in GF(q), so the line
    # through P_u0 and P_u1 meets the orbit in a GF(q)-plane of u
    line = ProjSubspace.from_basis(ctx, [sigma_point(ctx, u0), sigma_point(ctx, u1)])
    for S in (line, join_point(gamma_k(ctx, 1), sigma_point(ctx, u0)),
              ProjSubspace(ctx, [])):
        want = next((u for u in range(1, ctx.order)
                     if S.contains_point(sigma_point(ctx, u))), None)
        assert meets_sigma_orbit(S) == want


def test_meets_sigma_orbit_above_the_table_limit():
    # 191^6 elements: the kernel of the stacked equations needs no tables.
    # P_u has x_0 = u != 0, so the equation x_0 = 0 of gamma_k excludes it
    ctx = build_field(191, 1, 3)
    assert not ctx.has_tables
    assert meets_sigma_orbit(gamma_k(ctx, 1)) is None


def test_intn_values(ctx34):
    ctx = ctx34
    g = gamma_k(ctx, 1)
    vals = {m: intn(g, sigma_power=m) for m in (1, 3, 5, 7)}
    assert vals == {1: 3, 3: 3, 5: 3, 7: 3}
    with pytest.raises(NotDisjointFromSigma):
        intn(join_point(g, sigma_point(ctx, 1)))


def test_projection_recovers_half_slope(ctx34):
    ctx = ctx34
    k = 3
    g = gamma_k(ctx, k)
    psi = build_psi(ctx, k)
    us = np.arange(1, ctx.order, dtype=np.int64)
    slopes = projection_slopes(g, k, us)
    direct = ctx.vmul(psi.eval_vec(us), ctx.vinv(us))
    # projecting from the subspace onto the reference line scales f(x)/x by 2
    assert np.array_equal(slopes, ctx.vmul(np.full_like(us, 2), direct))
    line = project_to_line(g, k)
    assert np.array_equal(line, np.unique(ctx.vscale(2, direct)))


def test_pseudoregulus_shape(ctx34):
    ctx = ctx34
    assert not pseudoregulus_geometric_test(gamma_k(ctx, 1))
    vertex = orbit_subspace(ctx)
    assert vertex.projdim == ctx.n - 3
    assert meets_sigma_orbit(vertex) is None
    assert intn(vertex) == 1
    assert pseudoregulus_geometric_test(vertex)
