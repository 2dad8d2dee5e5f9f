"""Rank-metric codes spanned by a q-polynomial and the identity map.

The code attached to f is {a*f + b*id : a, b in GF(q^n)}, viewed inside the
GF(q)-algebra of q-polynomials; distance between codewords is the rank of
their difference as a GF(q)-linear map. Scalar multiples share a rank, so
every distance-type quantity is computed over the q^n + 1 projective
representative classes (1, b) and (0, 1). Idealisers (one-sided stabilizing
subalgebras) come from an exact GF(p)-nullspace solve, never from search;
they compose through the GF(p) composition matrices L_c and R_c of
LinPoly, so they need no field tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import BadHypotheses, CtxMismatch
from .linpoly import LinPoly, poly_vec, vec_poly
from .scattered import shift_orbits, shift_ranks
from . import linalg, linsets


# -- the code ------------------------------------------------------------------

class RankCode:
    """The two-generator code {a*f + b*id}; degenerate when f is itself a
    scalar multiple of the identity (the span collapses to one dimension)."""

    __slots__ = ("ctx", "f", "_dist")

    def __init__(self, ctx, f: LinPoly):
        if f.ctx is not ctx:
            raise CtxMismatch("polynomial belongs to a different field context")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "_dist", None)

    def __setattr__(self, *a):
        raise AttributeError("RankCode is immutable")

    @property
    def degenerate(self) -> bool:
        return all(c == 0 for c in self.f.coeffs[1:])

    @property
    def size(self) -> int:
        return self.ctx.order if self.degenerate else self.ctx.order ** 2

    def _span(self):
        ident = [0] * self.ctx.n
        ident[0] = 1
        rows, _ = linalg.field_rref(self.ctx, [list(self.f.coeffs), ident])
        return tuple(tuple(r) for r in rows)

    def __eq__(self, other):
        return (isinstance(other, RankCode) and self.ctx is other.ctx
                and self._span() == other._span())

    def __hash__(self):
        return hash((id(self.ctx), self._span()))

    def __repr__(self):
        return f"RankCode(f={self.f!r}, degenerate={self.degenerate})"


def build_code(f: LinPoly) -> RankCode:
    return RankCode(f.ctx, f)


@dataclass(frozen=True)
class RankDistribution:
    """counts[r] = number of codewords of rank r, counting each (a, b) pair."""
    counts: Tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def __getitem__(self, r: int) -> int:
        return self.counts[r]

    def to_json(self):
        return {"counts": list(self.counts), "total": self.total}

    def csv_rows(self) -> List[Tuple[int, int]]:
        return [(r, c) for r, c in enumerate(self.counts)]


def rank_distribution(code: RankCode) -> RankDistribution:
    """Exact distribution from the projective representatives: each class
    (1, b) or (0, 1) contributes q^n - 1 scalings of one rank, plus the
    zero word. The rank of f + b*id is constant on the sigma_d-orbits of
    the shifts b (see scattered.shift_orbits), so one shift per orbit is
    ranked and counted once per element of its orbit."""
    if code._dist is None:
        ctx = code.ctx
        tally = np.zeros(ctx.n + 1, dtype=np.int64)
        for ms, sizes in shift_orbits(code.f):
            np.add.at(tally, shift_ranks(code.f, ms), sizes)
        scalings = ctx.order - 1
        counts = [scalings * int(c) for c in tally]
        counts[0] += 1
        counts[ctx.n] += scalings
        object.__setattr__(code, "_dist", RankDistribution(tuple(counts)))
    return code._dist


def min_rank_distance(code: RankCode) -> int:
    """Minimum rank over nonzero codewords."""
    dist = rank_distribution(code)
    return next(r for r in range(1, code.ctx.n + 1) if dist[r] > 0)


def is_mrd(code: RankCode) -> bool:
    """True iff the code size meets q^(n*(n-d+1)), i.e. d = n - 1 for these
    two-generator codes."""
    if code.degenerate:
        return False
    return min_rank_distance(code) == code.ctx.n - 1


def adjoint_code(code: RankCode) -> RankCode:
    return build_code(code.f.adjoint())


def code_equivalent(c1: RankCode, c2: RankCode, with_automorphisms: bool = True
                    ) -> Optional[linsets.Certificate]:
    """A certificate of equivalence of the codes, read off the subspace
    equivalence of the defining polynomials' graph subspaces through
    subspace_equivalent. That covers equivalence without transposition
    only. With transposition the codes are equivalent iff U_(f1) is
    equivalent to U_(f2) or to U_(f2^), f2^ being the adjoint (Sheekey
    2016), so a None from here does not rule that out."""
    if c1.ctx is not c2.ctx:
        raise CtxMismatch("codes live over different field contexts")
    return linsets.subspace_equivalent(c1.f, c2.f,
                                       with_automorphisms=with_automorphisms)


# -- idealisers ------------------------------------------------------------------

@dataclass(frozen=True)
class IdealiserReport:
    side: str
    basis: Tuple[LinPoly, ...]
    dim_p: int
    dim_q: int
    # None when the structural checks were skipped. all_invertible is read
    # off the structure constants, assuming closed and contains_identity
    # (true of every idealiser): False when not commutative (Wedderburn),
    # else the Berlekamp test that the algebra is a field (see idealiser)
    closed: Optional[bool]
    commutative: Optional[bool]
    all_invertible: Optional[bool]
    contains_identity: Optional[bool]

    @property
    def is_field(self) -> Optional[bool]:
        flags = (self.closed, self.commutative, self.all_invertible,
                 self.contains_identity)
        if any(f is None for f in flags):
            return None
        return all(flags)

    def to_json(self):
        return {"side": self.side,
                "basis": [list(b.coeffs) for b in self.basis],
                "dim_p": self.dim_p, "dim_q": self.dim_q,
                "closed": self.closed, "commutative": self.commutative,
                "all_invertible": self.all_invertible,
                "contains_identity": self.contains_identity,
                "is_field": self.is_field}


def idealiser(code: RankCode, side: str = "left", check_flags: bool = True
              ) -> IdealiserReport:
    """One-sided stabilizing subalgebra, by exact linear solve over GF(p).

    An unknown q-polynomial phi (n*(e*n) digit unknowns) lies in the left
    idealiser iff phi o c stays in the code for every c in a GF(p)-basis of
    the code. In poly_vec coordinates phi o c is R_c phi, so each c
    contributes the block K R_c of linear conditions, K being the code's
    membership kernel. phi is GF(q)-linear, so phi o (lam*c) = lam*(phi o c)
    for lam in GF(q), and the code is closed under lam*: the left side
    needs only the 2n blocks of the GF(q)-basis {x^d f, x^d id : d < n}
    (x^d, of index p^d, for d < n are a GF(q)-basis of GF(q^n)). The right
    side swaps the composition order, c o phi being L_c phi, and needs two
    blocks only: every codeword is c = lam*f + mu*id, so
    c o phi = lam*(f o phi) + mu*phi, and the code is closed under lam*.
    So c o phi lies in the code for every c iff f o phi and phi do, and
    the right side stacks K L_f and K L_id. The nullspace depends only on
    the row space of the stack, read off its unique reduced echelon form,
    so any stack with the same solutions gives the same basis. The
    closure and commutativity flags read the products u o v of basis
    elements off L_u times the basis.

    all_invertible is decided on those structure constants, assuming the
    algebra is closed and contains the identity, as every idealiser is. A
    map of such an algebra that is invertible has its inverse in it (a
    polynomial in the map), so every nonzero element is invertible iff the
    algebra is a division algebra, and a finite one is a field (Wedderburn).
    A non-commutative idealiser thus has a singular nonzero element. A
    commutative one is a field iff its Frobenius x -> x^p, a GF(p)-linear
    map F, has rank dim_p (no nilpotents) and F - I has rank dim_p - 1 (one
    factor: the fixed points of a product of fields are one GF(p) per
    factor; Berlekamp 1967).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    ctx = code.ctx
    p, en = ctx.p, ctx.en
    ident = LinPoly.identity(ctx)
    gens = [g.scale(p ** d) for d in range(en) for g in (code.f, ident)]
    K = linalg.modp_nullspace(poly_vec(ctx, [g.coeffs for g in gens]), p)
    if side == "left":
        blocks = [c.right_matrix() for c in gens[:2 * ctx.n]]
    else:
        blocks = [code.f.left_matrix(), ident.left_matrix()]
    xi = linalg.modp_nullspace(
        np.concatenate([linalg.mod_p_product(K, B, p) for B in blocks]), p)
    basis = tuple(vec_poly(ctx, v) for v in xi)
    dim_p = len(xi)

    # vacuously true for the zero algebra; None when skipped
    verdict = True if (check_flags or not dim_p) else None
    closed = commutative = all_invertible = contains_identity = verdict
    if check_flags and dim_p:
        # membership in the span of xi: the kernel of its annihilator
        member = linalg.modp_nullspace(xi, p)
        contains_identity = not (member @ poly_vec(ctx, ident.coeffs) % p).any()
        # C[i][:, j] holds the coordinates of basis[i] o basis[j]
        C = np.stack([linalg.mod_p_product(u.left_matrix(), xi.T, p)
                      for u in basis]).astype(np.int64)
        closed = not (member @ C % p).any()
        commutative = np.array_equal(C, C.transpose(2, 1, 0))
        all_invertible = commutative and _is_field(C, xi, p)
    return IdealiserReport(side=side, basis=basis, dim_p=dim_p,
                           dim_q=dim_p // ctx.e, closed=closed,
                           commutative=commutative,
                           all_invertible=all_invertible,
                           contains_identity=contains_identity)


def _is_field(C: np.ndarray, xi: np.ndarray, p: int) -> bool:
    """Whether the commutative algebra with identity spanned by the rows of
    xi is a field, C[i][:, j] being the poly_vec coordinates of
    basis[i] o basis[j].

    xi is a modp_nullspace basis, so row k is 1 at its last nonzero column
    f_k and 0 at the other f_j: an element of the span has coordinates
    v[f_0..f_(r-1)] over the basis, and S_i = C[i][f, :] is the matrix of
    multiplication by basis[i]. Column i of the Frobenius matrix F is the
    coordinates of basis[i]^p, S_i^(p-1) e_i. The products are exact in
    int64: entries below p < 46341, summed over at most r terms."""
    r = len(xi)
    free = [int(np.flatnonzero(row)[-1]) for row in xi]
    ident = np.eye(r, dtype=np.int64)
    F = np.empty((r, r), dtype=np.int64)
    for i, S in enumerate(C[:, free, :]):
        F[:, i] = linalg.modp_power(S, p - 1, p)[:, i]

    def rank(A):
        return len(linalg.modp_rref(A, p)[1])
    return rank(F) == r and rank(F - ident) == r - 1


# -- the counting statement ------------------------------------------------------

def count_new_codes(q: int, t: int) -> Tuple[List[int], int]:
    """The exponents 1 <= k < t coprime to 2t and their count phi(2t)/2,
    under the hypotheses: q a power of an odd prime, t >= 3, and q = 1
    (mod 4) whenever t is odd.

    This counts exponents, not inequivalent codes: when 4 | t, psi_k and
    psi_(t-k) give equivalent codes through an antidiagonal certificate
    (see the `equivalence` acceptance criterion), so at (3, 4) the two
    exponents 1 and 3 give one code up to equivalence."""
    q, t = int(q), int(t)
    if t < 3:
        raise BadHypotheses("t must be at least 3")
    if q < 3 or q % 2 == 0:
        raise BadHypotheses("q must be odd")
    p = next((d for d in range(3, q + 1, 2) if q % d == 0), q)
    m = q
    while m % p == 0:
        m //= p
    if m != 1 or any(p % d == 0 for d in range(3, int(p ** 0.5) + 1, 2)):
        raise BadHypotheses("q must be a power of an odd prime")
    if t % 2 == 1 and q % 4 != 1:
        raise BadHypotheses("odd t requires q = 1 (mod 4)")
    ks = [k for k in range(1, t) if math.gcd(k, 2 * t) == 1]
    phi = sum(1 for i in range(1, 2 * t + 1) if math.gcd(i, 2 * t) == 1)
    return ks, phi // 2
