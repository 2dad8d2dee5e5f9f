"""Projective subspaces of PG(n-1, q^n) and the shift-Frobenius collineation.

Points carry homogeneous coordinates (x_0, ..., x_{n-1}) over GF(q^n). The
collineation sigma shifts coordinates by one slot and raises entries to the
q-th power; its fixed points P_u = (u, u^q, ..., u^(q^(n-1))), u != 0, form
a canonical subgeometry isomorphic to PG(n-1, q). The subspace cut out by
x_0 = 0 together with the four-term covector of 2*psi_k misses that point
orbit, and projecting the orbit from it onto a coordinate line recovers the
linear set of 2*psi_k. Intersection numbers along the sigma-orbit of a
subspace separate this construction from pseudoregulus-type vertices, whose
first self-intersection already has dimension n-4.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BadK, CtxMismatch, NotDisjointFromSigma, ScatpolyError
from .linpoly import LinPoly
from . import linalg


class ProjSubspace:
    """A projective subspace, stored as canonical linear equations.

    The equation rows are the reduced row echelon form of the covectors
    vanishing on the subspace, so two subspaces are equal iff their
    equation tuples are equal. A spanning basis is derived lazily.
    """

    __slots__ = ("ctx", "equations", "_basis")

    def __init__(self, ctx, equations):
        object.__setattr__(self, "ctx", ctx)
        rows, _ = linalg.field_rref(ctx, [list(map(int, r)) for r in equations])
        object.__setattr__(self, "equations", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "_basis", None)

    def __setattr__(self, *a):
        raise AttributeError("ProjSubspace is immutable")

    @classmethod
    def from_basis(cls, ctx, rows) -> "ProjSubspace":
        """Subspace spanned by the given coordinate vectors."""
        return cls(ctx, linalg.field_nullspace(ctx, [list(r) for r in rows]))

    # -- shape -----------------------------------------------------------

    @property
    def ambient(self) -> int:
        return self.ctx.n

    @property
    def projdim(self) -> int:
        """Projective dimension; -1 for the empty subspace."""
        return self.ctx.n - len(self.equations) - 1

    @property
    def basis(self) -> Tuple[Tuple[int, ...], ...]:
        if self._basis is None:
            if self.equations:
                rows = linalg.field_nullspace(self.ctx, self.equations)
            else:
                rows = [[1 if j == i else 0 for j in range(self.ctx.n)]
                        for i in range(self.ctx.n)]
            rows, _ = linalg.field_rref(self.ctx, rows)
            object.__setattr__(self, "_basis", tuple(tuple(r) for r in rows))
        return self._basis

    def contains_point(self, point: Sequence[int]) -> bool:
        ctx = self.ctx
        for eq in self.equations:
            acc = 0
            for c, x in zip(eq, point):
                acc = ctx.add(acc, ctx.mul(c, int(x)))
            if acc != 0:
                return False
        return True

    def __eq__(self, other):
        return (isinstance(other, ProjSubspace) and self.ctx is other.ctx
                and self.equations == other.equations)

    def __hash__(self):
        return hash((id(self.ctx), self.equations))

    def __repr__(self):
        return (f"ProjSubspace(dim={self.projdim}, "
                f"equations={len(self.equations)}, n={self.ctx.n})")

    def to_json(self):
        return {"ambient": self.ctx.n, "projdim": self.projdim,
                "basis": [list(r) for r in self.basis]}


# -- the collineation ---------------------------------------------------------

def sigma_point(ctx, u: int) -> Tuple[int, ...]:
    """The subgeometry point P_u = (u, u^q, ..., u^(q^(n-1)))."""
    return tuple(ctx.frob(int(u), i) for i in range(ctx.n))


def apply_sigma_point(ctx, point: Sequence[int], m: int = 1) -> Tuple[int, ...]:
    """Image coordinates under sigma^m: x_i <- x_((i-m) mod n) ^ (q^m)."""
    m = int(m) % ctx.n
    return tuple(ctx.frob(int(point[(i - m) % ctx.n]), m) for i in range(ctx.n))


def apply_sigma(S: ProjSubspace, m: int = 1) -> ProjSubspace:
    """Image subspace under sigma^m, back in canonical form.

    Covectors transform by the same shift-and-power rule as points: raising
    an equation to the q^m power keeps its solution set and realigns the
    Frobenius, so e'_i = e_((i-m) mod n) ^ (q^m).
    """
    ctx = S.ctx
    m = int(m) % ctx.n
    rows = [[ctx.frob(eq[(i - m) % ctx.n], m) for i in range(ctx.n)]
            for eq in S.equations]
    return ProjSubspace(ctx, rows)


def intersect(*subs: ProjSubspace) -> ProjSubspace:
    if not subs:
        raise ValueError("need at least one subspace")
    ctx = subs[0].ctx
    rows: List[List[int]] = []
    for S in subs:
        if S.ctx is not ctx:
            raise CtxMismatch("subspaces live over different field contexts")
        rows.extend(list(r) for r in S.equations)
    return ProjSubspace(ctx, rows)


def join_point(S: ProjSubspace, point: Sequence[int]) -> ProjSubspace:
    """Span of S and one additional point."""
    return ProjSubspace.from_basis(S.ctx, list(S.basis) + [list(point)])


# -- the distinguished (n-3)-subspace -----------------------------------------

def gamma_k(ctx, k: int) -> ProjSubspace:
    """The (n-3)-subspace with equations x_0 = 0 and the four-term covector
    x_k + x_(t-k) - x_(t+k) + x_(n-k) = 0 (slots taken mod n, coefficients
    accumulated when slots collide)."""
    k = int(k) % ctx.n
    if math.gcd(k, ctx.n) != 1:
        raise BadK(f"k = {k} must be coprime to n = {ctx.n}")
    t, n = ctx.t, ctx.n
    row = [0] * n
    one, neg_one = 1, ctx.neg(1)
    for slot, c in ((k, one), ((t - k) % n, one), ((t + k) % n, neg_one),
                    ((n - k) % n, one)):
        row[slot] = ctx.add(row[slot], c)
    eq0 = [0] * n
    eq0[0] = 1
    return ProjSubspace(ctx, [eq0, row])


def meets_sigma_orbit(S: ProjSubspace) -> Optional[int]:
    """First u != 0 with P_u in S, or None when S misses the whole orbit.

    Each equation row e, read as the q-polynomial sum_i e_i x^(q^i),
    vanishes at u exactly when the covector vanishes at P_u, so u runs
    over the common kernel of their stacked GF(p)-matrices, whose
    nullspace basis starts with its smallest element (see
    linalg.modp_nullspace). Reads no tables.
    """
    ctx = S.ctx
    A = np.reshape([LinPoly(ctx, eq).matrix() for eq in S.equations], (-1, ctx.en))
    basis = linalg.modp_nullspace(A, ctx.p)
    return ctx.from_digits(basis[0]) if len(basis) else None


def intn(S: ProjSubspace, sigma_power: int = 1) -> int:
    """Least k such that S meets its first k images under sigma^m in a
    subspace of projective dimension above n - 3 - 2k."""
    ctx = S.ctx
    if meets_sigma_orbit(S) is not None:
        raise NotDisjointFromSigma(
            "subspace meets the fixed point orbit of sigma")
    T = S
    if T.projdim > ctx.n - 3:
        return 0
    for k in range(1, ctx.n + 1):
        T = intersect(T, apply_sigma(S, sigma_power * k))
        if T.projdim > ctx.n - 3 - 2 * k:
            return k
    raise ScatpolyError("intersection number did not stabilize")  # unreachable


# -- projection onto a line ----------------------------------------------------

def projection_slopes(gamma: ProjSubspace, k: int, us: np.ndarray) -> np.ndarray:
    """For each u, the slope m of the point where the hyperplane spanned by
    gamma and P_u meets the line supported on coordinates 0 and n-k.

    With gamma's two equations e1, e2, the hyperplane through P_u has the
    pencil equation e2(P_u)*e1 - e1(P_u)*e2; restricted to the line it reads
    c0*x_0 + c1*x_(n-k) = 0, giving the point (1, -c0/c1). As functions of
    u, -c0 and c1 are q-polynomials, E1 and E2 being the covectors e1, e2
    read as q-polynomials, so each is one evaluation.
    """
    ctx = gamma.ctx
    if len(gamma.equations) != 2:
        raise ScatpolyError("projection needs a subspace of codimension 2")
    e1, e2 = gamma.equations
    E1, E2 = LinPoly(ctx, e1), LinPoly(ctx, e2)
    nk = (ctx.n - int(k)) % ctx.n
    num = (E1.scale(e2[0]) - E2.scale(e1[0])).eval_vec(us)
    den = (E2.scale(e1[nk]) - E1.scale(e2[nk])).eval_vec(us)
    if (den == 0).any():
        raise ScatpolyError("projection leaves the affine part of the line")
    return ctx.vmul(num, ctx.vinv(den))


def project_to_line(gamma: ProjSubspace, k: int) -> np.ndarray:
    """Point set on the target line swept by all P_u, u != 0, as sorted
    normalized slopes; equals the linear set of 2*psi_k when gamma is the
    distinguished subspace for k."""
    gamma.ctx._need_whole_field()
    slopes = projection_slopes(gamma, k, np.arange(1, gamma.ctx.order, dtype=np.int64))
    # return_counts makes numpy sort; without it numpy 2.3 and later hash
    return np.unique(slopes, return_counts=True)[0]


# -- pseudoregulus shape test ---------------------------------------------------

def pseudoregulus_geometric_test(gamma: ProjSubspace) -> bool:
    """True iff some generator sigma^m (gcd(m, n) = 1) of the subgeometry's
    pointwise stabilizer has dim(gamma ^ gamma^(sigma^m)) = n - 4."""
    ctx = gamma.ctx
    if meets_sigma_orbit(gamma) is not None:
        raise NotDisjointFromSigma(
            "subspace meets the fixed point orbit of sigma")
    for m in range(1, ctx.n):
        if math.gcd(m, ctx.n) != 1:
            continue
        if intersect(gamma, apply_sigma(gamma, m)).projdim == ctx.n - 4:
            return True
    return False


def orbit_subspace(ctx, m: int = 1, point: Optional[Sequence[int]] = None,
                   count: Optional[int] = None) -> ProjSubspace:
    """Span of count consecutive sigma^m images of a point (default: the
    first coordinate point and n-2 images), the vertex shape whose first
    self-intersection under sigma^m has dimension n-4."""
    if point is None:
        point = [1] + [0] * (ctx.n - 1)
    if count is None:
        count = ctx.n - 2
    rows = []
    cur = tuple(int(x) for x in point)
    for _ in range(count):
        rows.append(list(cur))
        cur = apply_sigma_point(ctx, cur, m)
    return ProjSubspace.from_basis(ctx, rows)
