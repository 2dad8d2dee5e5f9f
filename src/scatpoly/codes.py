"""Rank-metric codes spanned by a q-polynomial and the identity map.

The code attached to f is {a*f + b*id : a, b in GF(q^n)}, viewed inside the
GF(q)-algebra of q-polynomials; distance between codewords is the rank of
their difference as a GF(q)-linear map. Scalar multiples share a rank, so
every distance-type quantity is computed over the q^n + 1 projective
representative classes (1, b) and (0, 1). The rank of f + b*id comes from
the fibers of x -> f(x)/x (Fact 1): ker(f + b*id) minus 0 is the fiber of
-b, so one fiber pass of f (LinPoly._fibers) gives every rank, with no
sweep over the shifts b.

Idealisers (one-sided stabilizing subalgebras) come from an exact
GF(p)-nullspace solve in the code's own GF(p)-span, never from search;
they compose through the GF(p) composition matrix L_f of LinPoly and the
multiplication matrices M_(p^d), so they need no field tables. A code
keeps what its solves share: its GF(p)-basis V, the membership kernel K
of V and L_f, as it keeps its rank distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import BadHypotheses, CtxMismatch
from .linpoly import LinPoly, poly_vec, vec_poly
from . import linalg, linsets


# -- the code ------------------------------------------------------------------

class RankCode:
    """The two-generator code {a*f + b*id}; degenerate when f is itself a
    scalar multiple of the identity (the span collapses to one dimension).

    Immutable. A code keeps, once computed, its rank distribution
    (rank_distribution) and the GF(p) data that both idealisers read
    (_gf_p_basis): the basis V, its membership kernel K and L_f."""

    __slots__ = ("ctx", "f", "_dist", "_basis")

    def __init__(self, ctx, f: LinPoly):
        if f.ctx is not ctx:
            raise CtxMismatch("polynomial belongs to a different field context")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "_dist", None)
        object.__setattr__(self, "_basis", None)

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
    zero word. The class (0, 1), the identity, has rank n.

    The rank of f + b*id is read off the fibers of x -> f(x)/x (Fact 1):
    ker(f + b*id) minus 0 is the fiber of -b. So f + b*id has rank n - k
    when -b is a value whose fiber has q^k - 1 elements, and rank n when
    -b is not a value. One LinPoly._fibers pass gives every value's fiber
    size, (q - 1)*weight for each of the length values of an orbit, and
    the q^n - n_values shifts whose negatives are not values have rank n,
    n_values being the sum of the lengths. Kept on the code."""
    if code._dist is None:
        ctx = code.ctx
        q, n = ctx.q, ctx.n
        ctx._need_whole_field()
        _, lengths, weights = code.f._fibers()
        # a fiber of q^k - 1 elements, a k-space minus 0, weighs
        # (q^k - 1)/(q - 1) classes
        sizes = [(q ** k - 1) // (q - 1) for k in range(n + 1)]
        tally = np.zeros(n + 1, dtype=np.int64)
        np.add.at(tally, n - np.searchsorted(sizes, weights), lengths)
        tally[n] += ctx.order - int(lengths.sum())
        scalings = ctx.order - 1
        counts = [scalings * int(c) for c in tally]
        counts[0] += 1
        counts[n] += scalings
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

    id lies in the code C, so every phi of the left idealiser is
    phi o id and every phi of the right one is id o phi: both lie in C.
    So phi = y V is solved for in the 2*e*n digits y of its coordinates
    over the code's GF(p)-basis gens = {p^d f, p^d id : d < e*n}, V being
    poly_vec(gens) and K, the nullspace of V, the code's membership
    kernel. V, K and L_f are made once per code and kept on it
    (_gf_p_basis), so the two sides of one code share them.

    phi lies in the left idealiser iff phi o c stays in C for
    every c in C. phi is GF(q)-linear, so phi o (lam*c) = lam*(phi o c)
    for lam in GF(q), and C is closed under lam*: the GF(q)-basis
    {x^d f, x^d id : d < n} of C suffices (x^d, of index p^d, for d < n
    are a GF(q)-basis of GF(q^n)). With (p^d f) o c = p^d (f o c) and
    (p^d id) o c = p^d c, the block of c has the columns
    K poly_vec(p^d (f o c)) and K poly_vec(p^d c), read off L_f and the
    matrices M_(p^d): 2n blocks of |K| rows. On the right, every codeword
    is lam*f + mu*id, so c o phi = lam*(f o phi) + mu*phi lies in C for
    every c iff f o phi does, phi being in C: the one block K L_f V^T.
    At q = 9 the left system is 576 x 24 and the right one 48 x 24.

    The solutions phi = y V span the idealiser, and its basis is the
    unique one a nullspace solve in all n*e*n digits of phi would return
    (linalg.modp_nullspace): row k is 1 at its last nonzero column f_k
    and 0 at the other f_j, which is the reduced echelon form of the
    solutions with their columns reversed. The closure and commutativity
    flags read the products u o v of basis elements off L_u times the
    basis, all L_u from one batch of monomial matrices.

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
    p, n, en = ctx.p, ctx.n, ctx.en
    V, K, L_f = _gf_p_basis(code)
    if side == "left":
        # U[g, c] is poly_vec(f o c) (g = 0) or poly_vec(c) (g = 1) for c in
        # gens[:2n], one row per slot; W[c][:, 2d + g] is poly_vec of
        # gens[2d + g] o c, that is M_(p^d) applied to every slot of U[g, c]
        cs = V[:2 * n]
        U = np.stack([linalg.mod_p_product(cs, L_f.T, p), cs]).reshape(-1, en)
        X = linalg.mult_tensor(ctx)
        W = linalg.mod_p_product(U, X.transpose(2, 0, 1).reshape(en, en * en), p)
        W = W.reshape(2, 2 * n, n, en, en).transpose(1, 2, 4, 3, 0)
        A = linalg.mod_p_product(K, W.reshape(2 * n, n * en, 2 * en), p)
    else:
        A = linalg.mod_p_product(K, linalg.mod_p_product(L_f, V.T, p), p)
    Y = linalg.modp_nullspace(A.reshape(-1, 2 * en), p)
    S = linalg.mod_p_product(Y, V, p)
    xi = linalg.modp_rref(S[:, ::-1], p)[0][::-1, ::-1]
    basis = tuple(vec_poly(ctx, v) for v in xi)
    dim_p = len(xi)

    # vacuously true for the zero algebra; None when skipped
    verdict = True if (check_flags or not dim_p) else None
    closed = commutative = all_invertible = contains_identity = verdict
    if check_flags and dim_p:
        # membership in the span of xi: the kernel of its annihilator
        member = linalg.modp_nullspace(xi, p)
        # V[1] is poly_vec(id)
        contains_identity = not (member @ V[1] % p).any()
        C = _structure_constants(ctx, xi)
        closed = not (member @ C % p).any()
        commutative = np.array_equal(C, C.transpose(2, 1, 0))
        all_invertible = commutative and _is_field(C, xi, p)
    return IdealiserReport(side=side, basis=basis, dim_p=dim_p,
                           dim_q=dim_p // ctx.e, closed=closed,
                           commutative=commutative,
                           all_invertible=all_invertible,
                           contains_identity=contains_identity)


def _gf_p_basis(code: RankCode):
    """(V, K, L_f) of the code, made on the first call and kept: V is
    poly_vec of the GF(p)-basis {p^d f, p^d id : d < e*n}, row 2d + g, K
    the nullspace of V and L_f the composition matrix of f.

    Slot i of poly_vec(p^d f) is the digit vector of p^d * f_i, that is
    M_(p^d) applied to the digits of f_i, so the f rows are one product of
    f's digits against the matrices M_(p^d); poly_vec(p^d id) is the unit
    vector of digit d in slot 0, p^d being the element x^d."""
    if code._basis is None:
        ctx = code.ctx
        p, n, en = ctx.p, ctx.n, ctx.en
        digs = poly_vec(ctx, code.f.coeffs).reshape(n, en)
        V = np.zeros((en, 2, n, en), dtype=np.int64)
        V[:, 0] = digs @ linalg.mult_tensor(ctx).transpose(0, 2, 1) % p
        V[np.arange(en), 1, 0, np.arange(en)] = 1
        V = V.reshape(2 * en, n * en)
        basis = V, linalg.modp_nullspace(V, p), code.f.left_matrix()
        for a in basis:
            a.flags.writeable = False
        object.__setattr__(code, "_basis", basis)
    return code._basis


def _structure_constants(ctx, xi: np.ndarray) -> np.ndarray:
    """C with C[i][:, j] the poly_vec coordinates of u_i o u_j, u_i being
    the q-polynomial of row i of xi: C[i] = L_(u_i) xi^T, as int64.

    Block (m, s') of L_u is the matrix of the monomial u_(m-s') x^(q^(m-s')),
    so slot m of u_i o u_j is the sum over s of the monomial u_(i,s) x^(q^s)
    applied to slot m - s of u_j. The monomial matrices of every basis
    element come from one qpoly_matrices batch, and the sum is one product
    against the rolled slots of xi."""
    p, n, en = ctx.p, ctx.n, ctx.en
    r = len(xi)
    coeffs = linalg.plane_indices(xi.reshape(r, n, en).transpose(2, 0, 1), p)
    cols = np.zeros((n, r, n), dtype=np.int64)  # column (i, s): u_(i,s) x^(q^s)
    cols[np.arange(n), :, np.arange(n)] = coeffs.T
    mono = linalg.qpoly_matrices(ctx, cols.reshape(n, r * n)).reshape(en, en, r, n)
    lag = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n  # lag[s, m] = m - s
    Z = xi.reshape(r, n, en)[:, lag, :]  # Z[j, s, m, c] = slot m - s of u_j, digit c
    P = linalg.mod_p_product(mono.transpose(2, 0, 3, 1).reshape(r * en, n * en),
                             Z.transpose(1, 3, 2, 0).reshape(n * en, n * r), p)
    return P.reshape(r, en, n, r).transpose(0, 2, 1, 3).reshape(r, n * en, r).astype(np.int64)


def _is_field(C: np.ndarray, xi: np.ndarray, p: int) -> bool:
    """Whether the commutative algebra with identity spanned by the rows of
    xi is a field, C[i][:, j] being the poly_vec coordinates of
    basis[i] o basis[j].

    xi is the reduced basis of the solution space that idealiser reads
    off, so row k is 1 at its last nonzero column f_k and 0 at the other
    f_j: an element of the span has coordinates
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
