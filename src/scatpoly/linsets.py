"""Linear sets on the projective line PG(1, q^n) and equivalence of their
defining subspaces.

A q-polynomial f defines the GF(q)-subspace U_f = {(x, f(x))} of the
two-dimensional GF(q^n) space and the point set
L_f = {<(x, f(x))> : x nonzero} on the projective line. Since x is nonzero
every point has the form <(1, m)> with m = f(x)/x, so L_f is stored as the
sorted array of those m values.

Subspace equivalence asks for a field automorphism tau and an invertible
M = [[a, b], [c, d]] over GF(q^n) with M * U_(f^tau) = U_g, that is
g(a*x + b*F(x)) = c*x + d*F(x) with F = f^tau. The answer is exact, with
no search space and no budget. The equation is GF(p)-linear in the
digits of (a, b, c, d), and c and d are read off it in closed form from
(a, b), so for each twist its solutions form the nullspace S of a small
GF(p) system in the digits of (a, b) alone, and det M = a*d - b*c is a
quadratic form Q on S. On an affine space v0 + span(U), Q has degree
2 < p in the coordinates, so it vanishes everywhere iff it vanishes at
v0, v0 + u_i, v0 + 2*u_i and v0 + u_i + u_j. That test rules a twist
out, and, applied digit by digit, reads off S the certificate with the
smallest (b, a). The system is assembled from the matrices mono_i of g's
monomials g_i x^(q^i), contracted once per call from g's digits and
FieldCtx.action_tensor, and the multiplication matrices M_(F_i), one
contraction per twist: slot m of g(a*x + b*F(x)) is
mono_m a + sum_j mono_(m-j) M_(F_j) b. Q is evaluated through M_a, so
equivalence needs no field tables and runs above TABLE_LIMIT. Every
certificate returned is re-verified by explicit composition.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import BadParams
from .linpoly import LinPoly
from . import linalg


# -- linear sets ---------------------------------------------------------------

def normalize_point(ctx, pair) -> Tuple[int, int]:
    """Canonical representative of a projective point of PG(1, q^n):
    (1, m) when the first coordinate is nonzero, else (0, 1)."""
    a, b = int(pair[0]), int(pair[1])
    if a == 0 and b == 0:
        raise BadParams("(0, 0) is not a projective point")
    if a == 0:
        return (0, 1)
    return (1, ctx.div(b, a))


def linear_set(f: LinPoly) -> np.ndarray:
    """Sorted m values of the points <(1, m)> of L_f."""
    return f.line_values()


def linear_set_size(f: LinPoly) -> int:
    return int(len(linear_set(f)))


# -- reference families ---------------------------------------------------------

def known_family(ctx, name: str, **params) -> LinPoly:
    """Reference maximum scattered polynomials, by constructor name.

    u1(s):        x^(q^s), gcd(s, n) = 1  (pseudoregulus type)
    u2(s, delta): delta*x^(q^s) + x^(q^(n-s)), gcd(s, n) = 1, the GF(q)-norm
                  of delta outside {0, 1}
    u3(s, delta): delta*x^(q^s) + x^(q^(s + n/2)), n in {6, 8},
                  gcd(s, n/2) = 1, the GF(q^(n/2))-norm of delta outside {0, 1}
    u4(delta):    x^q + x^(q^3) + delta*x^(q^5), n = 6, q odd,
                  delta^2 + delta = 1
    u5(h):        h^(q-1)*x^q - h^(q^2-1)*x^(q^2) + x^(q^4) + x^(q^5),
                  n = 6, h^(q^3 + 1) = -1
    """
    n, q = ctx.n, ctx.q
    name = name.lower()
    if name == "u1":
        s = int(params["s"])
        if math.gcd(s, n) != 1:
            raise BadParams(f"u1 needs gcd(s, n) = 1, got s = {s}, n = {n}")
        return LinPoly.monomial(ctx, 1, s)
    if name == "u2":
        s, delta = int(params["s"]), int(params["delta"])
        if math.gcd(s, n) != 1:
            raise BadParams(f"u2 needs gcd(s, n) = 1, got s = {s}, n = {n}")
        if ctx.norm(delta, "q") in (0, 1):
            raise BadParams("u2 needs the GF(q)-norm of delta outside {0, 1}")
        coeffs = [0] * n
        coeffs[s % n] = delta
        coeffs[(n - s) % n] = ctx.add(coeffs[(n - s) % n], 1)
        return LinPoly(ctx, coeffs)
    if name == "u3":
        s, delta = int(params["s"]), int(params["delta"])
        if n not in (6, 8):
            raise BadParams(f"u3 exists only for n in {{6, 8}}, got n = {n}")
        if math.gcd(s, n // 2) != 1:
            raise BadParams(f"u3 needs gcd(s, n/2) = 1, got s = {s}")
        if ctx.norm(delta, "qt") in (0, 1):
            raise BadParams("u3 needs the GF(q^(n/2))-norm of delta outside {0, 1}")
        coeffs = [0] * n
        coeffs[s % n] = delta
        slot = (s + n // 2) % n
        coeffs[slot] = ctx.add(coeffs[slot], 1)
        return LinPoly(ctx, coeffs)
    if name == "u4":
        delta = int(params["delta"])
        if n != 6:
            raise BadParams(f"u4 exists only for n = 6, got n = {n}")
        if ctx.add(ctx.mul(delta, delta), delta) != 1:
            raise BadParams("u4 needs delta^2 + delta = 1")
        coeffs = [0] * n
        coeffs[1], coeffs[3], coeffs[5] = 1, 1, delta
        return LinPoly(ctx, coeffs)
    if name == "u5":
        h = int(params["h"])
        if n != 6:
            raise BadParams(f"u5 exists only for n = 6, got n = {n}")
        if ctx.pow_(h, q ** 3 + 1) != ctx.neg(1):
            raise BadParams("u5 needs h^(q^3 + 1) = -1")
        coeffs = [0] * n
        coeffs[1] = ctx.pow_(h, q - 1)
        coeffs[2] = ctx.neg(ctx.pow_(h, q * q - 1))
        coeffs[4] = 1
        coeffs[5] = 1
        return LinPoly(ctx, coeffs)
    raise BadParams(f"unknown family {name!r}")


# -- set-level comparisons -------------------------------------------------------

def _inclusion_tensor(f: LinPoly, g: LinPoly) -> np.ndarray:
    """(e*n, e*n, e*n) stack whose slot d is M_(f(p^d)) - M_(p^d) A_g; the
    GF(p)-matrix of Y -> f(x)*Y - g(Y)*x is the sum of the slots weighted
    by the digits of x, since f(x) and M_a are GF(p)-linear in x and a."""
    A_f = f.matrix()
    Mp = linalg.mult_tensor(f.ctx)
    # M_(f(p^d)) = sum_k digit_k(f(p^d)) * M_(p^k), with digit_k(f(p^d)) = A_f[k, d]
    return (np.einsum("kd,krc->drc", A_f, Mp) - Mp @ g.matrix()) % f.ctx.p


def inclusion_dickson(f: LinPoly, g: LinPoly) -> bool:
    """L_f subset of L_g, decided without enumerating L_g's fibers: the point
    of L_f at x lies in L_g iff Y -> f(x)*Y - g(Y)*x has nonzero kernel,
    i.e. iff its Dickson matrix is singular.

    That map at lam*x, lam in GF(q)*, is lam times the map at x, and x and
    lam*x give the same point, so x runs over the GF(q)*-orbit
    representatives omega^j, j < R = (q^n - 1)/(q - 1), only; each matrix
    is the digit contraction of x against one inclusion tensor.

    sigma_d: x -> x^(p^d), d = lcm of the coefficient degrees of f and g,
    commutes with both maps, so the map at sigma_d(x) is sigma_d composed
    with the map at x and sigma_d^-1 on Y, and is singular with it. So j
    runs only over the representatives of the sigma_d-orbits of the
    classes (FieldCtx.frobenius_orbits), in count-sized batches
    (linalg.orbit_batches); a boolean needs no ordering."""
    f._check(g)
    ctx = f.ctx
    T = _inclusion_tensor(f, g)
    d = math.lcm(f.coeff_degree(), g.coeff_degree())
    for js, _ in linalg.orbit_batches(ctx.frobenius_orbits("classes", d)):
        if np.any(linalg.digit_dickson_ranks(ctx, T, ctx.vgen_power(js)) == ctx.n):
            return False
    return True


def coefficient_prefilter(f: LinPoly, g: LinPoly) -> bool:
    """Fast necessary conditions for L_f = L_g in terms of the coefficient
    vectors (a = f, b = g); a False verdict proves the sets differ, True is
    inconclusive. Never rejects a pair with equal linear sets."""
    f._check(g)
    ctx = f.ctx
    n = ctx.n
    a, b = f.coeffs, g.coeffs
    if a[0] != b[0]:
        return False
    for k in range(1, n):
        lhs = ctx.mul(a[k], ctx.frob(a[n - k], k))
        rhs = ctx.mul(b[k], ctx.frob(b[n - k], k))
        if lhs != rhs:
            return False
    for k in range(2, n):
        lhs = ctx.add(
            ctx.mul(ctx.mul(a[1], ctx.frob(a[k - 1], 1)), ctx.frob(a[n - k], k)),
            ctx.mul(ctx.mul(a[k], ctx.frob(a[n - 1], 1)), ctx.frob(a[(n - k + 1) % n], k)))
        rhs = ctx.add(
            ctx.mul(ctx.mul(b[1], ctx.frob(b[k - 1], 1)), ctx.frob(b[n - k], k)),
            ctx.mul(ctx.mul(b[k], ctx.frob(b[n - 1], 1)), ctx.frob(b[(n - k + 1) % n], k)))
        if lhs != rhs:
            return False
    return True


# -- subspace equivalence --------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Witness of U_g = M * U_(f^(p^twist)) with M = [[a, b], [c, d]]."""
    twist: int
    a: int
    b: int
    c: int
    d: int

    def to_json(self):
        return {"twist": self.twist, "matrix": [[self.a, self.b], [self.c, self.d]]}

    def verify(self, f: LinPoly, g: LinPoly) -> bool:
        """Exact check: M invertible and g(a*x + b*F(x)) = c*x + d*F(x)
        with F the twisted f."""
        ctx = f.ctx
        det = ctx.sub(ctx.mul(self.a, self.d), ctx.mul(self.b, self.c))
        if det == 0:
            return False
        F = f.frob_twist(self.twist)
        h = LinPoly.monomial(ctx, self.a, 0) + F.scale(self.b)
        rhs = LinPoly.monomial(ctx, self.c, 0) + F.scale(self.d)
        return g.compose(h) == rhs


def _monomial_matrices(g: LinPoly) -> np.ndarray:
    """(n, e*n, e*n) stack of the GF(p)-matrices mono_i of the monomials
    g_i x^(q^i), each the contraction of g_i's digits against slot i of
    FieldCtx.action_tensor; zero where g_i is."""
    ctx = g.ctx
    p, en, n = ctx.p, ctx.en, ctx.n
    digits = np.array([ctx.digits(c) for c in g.coeffs], dtype=np.int64)[:, None]
    T = ctx.action_tensor().reshape(n, en, en * en)
    return (digits @ T % p).reshape(n, en, en)


def _solutions(ctx, mono: np.ndarray, F: LinPoly) -> np.ndarray:
    """Basis rows, as the digits of (a, b, c, d), of the GF(p)-space of
    solutions of g(a*x + b*F(x)) = c*x + d*F(x), F not scalar, mono being
    g's _monomial_matrices.

    With M_i = M_(F_i), slot m of g(a*x + b*F(x)) is G_m [a; b] with
    G_m = [mono_m | sum_j mono_(m-j) M_j], slot indices mod n: a*x
    reaches slot m through g_m x^(q^m) alone, and the slot j of b*F(x),
    M_j b, through g_(m-j) x^(q^(m-j)). The equation reads
    G_0 [a; b] = c + M_0 d and G_m [a; b] = M_m d for m >= 1. For the
    first s >= 1 with F_s nonzero, that gives d = D [a; b] and
    c = C [a; b] in closed form, with D = M_(F_s^-1) G_s and
    C = G_0 - M_0 D. So only the 2*e*n digits of (a, b) are eliminated, on
    the blocks G_m - M_m D for m not in {0, s}, and each nullspace row N
    is lifted to [N, N C^T, N D^T]."""
    p, en, n = ctx.p, ctx.en, ctx.n
    s = next(i for i in range(1, n) if F.coeffs[i])
    # M[i] = M_(F_i) for i < n, and M[n] = M_(F_s^-1)
    digits = np.array([ctx.digits(c) for c in F.coeffs + (ctx.inv(F.coeffs[s]),)],
                      dtype=np.int64)
    M = (digits @ linalg.mult_tensor(ctx).reshape(en, en * en) % p).reshape(n + 1, en, en)
    # the block-circulant product, over the monomials g has
    live = np.flatnonzero(mono.any(axis=(1, 2)))
    lag = (np.arange(n) - live[:, None]) % n
    G = np.concatenate([mono, (mono[live, None] @ M[lag]).sum(0)], axis=2) % p
    D = M[n] @ G[s] % p
    C = (G[0] - M[0] @ D) % p
    rest = [i for i in range(1, n) if i != s]
    N = linalg.modp_nullspace((G[rest] - M[rest] @ D).reshape(-1, 2 * en) % p, p)
    return np.concatenate([N, N @ C.T % p, N @ D.T % p], axis=1)


def _read_certificate(ctx, mono: np.ndarray, F: LinPoly, twist: int
                      ) -> Optional[Certificate]:
    """The invertible M = [[a, b], [c, d]] solving
    g(a*x + b*F(x)) = c*x + d*F(x) with the smallest (b, a) in index order,
    comparing b first, or None when every solution is singular.

    The solutions form the GF(p)-space S of _solutions, where c and d are
    functions of (a, b). Index order compares base-p digits from the top
    one down, so the digits of b and then of a are fixed in that order,
    each to the first value that leaves an invertible point in the affine
    space left. Each step depends on that affine space only, so the
    certificate does not depend on the basis of S."""
    p, en = ctx.p, ctx.en
    U = _solutions(ctx, mono, F)
    if not len(U):
        return None  # the only solution is the zero matrix
    v0 = np.zeros(4 * en, dtype=np.int64)
    if not _span_has_invertible(ctx, v0, U):
        return None
    # b's digits sit at en..2*en - 1 and a's at 0..en - 1: top down, b first
    for pos in range(2 * en - 1, -1, -1):
        rows = U[:, pos].nonzero()[0]
        if len(rows) == 0:
            continue  # this digit is v0[pos] all over the space
        u = U[rows[0]] * pow(int(U[rows[0], pos]), -1, p) % p
        U = np.delete(U, rows[0], axis=0)
        U = (U - U[:, pos, None] * u) % p
        v0 = next(w for w in ((v0 + (x - v0[pos]) * u) % p for x in range(p))
                  if _span_has_invertible(ctx, w, U))
    a, b, c, d = linalg.plane_indices(v0.reshape(4, en).T, p).tolist()
    return Certificate(twist, a, b, c, d)


def _span_has_invertible(ctx, v0: np.ndarray, U: np.ndarray) -> bool:
    """Whether the affine space v0 + GF(p)-span of the rows of U, each point
    the digits of some (a, b, c, d), holds a point where Q = a*d - b*c is
    nonzero.

    h(x) = Q(v0 + x*U) has degree at most 2 < p, so it is the zero function
    iff all its coefficients vanish, that is iff h is zero at 0, at each
    e_i, at each 2*e_i and at each e_i + e_j. The digits of a*d are M_a
    applied to those of d: sum_(k,c) a_k d_c M_(p^k) e_c."""
    p, en = ctx.p, ctx.en
    i, j = _pairs(len(U))
    pts = np.concatenate([v0[None], v0 + U, v0 + U[i] + U[j]]) % p
    a, b, c, d = pts.reshape(-1, 4, en).transpose(1, 0, 2)
    W = a[:, :, None] * d[:, None, :] - b[:, :, None] * c[:, None, :]
    T = linalg.mult_tensor(ctx).transpose(0, 2, 1).reshape(en * en, en)
    return bool((W.reshape(len(pts), -1) @ T % p).any())


@functools.lru_cache(maxsize=None)
def _pairs(k: int):
    """np.triu_indices(k), the index pairs i <= j of k rows, kept per k and
    read-only."""
    i, j = np.triu_indices(k)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def subspace_equivalent(f: LinPoly, g: LinPoly, with_automorphisms: bool = True
                        ) -> Optional[Certificate]:
    """M in GL(2, q^n) and an automorphism twist with U_g = M * U_(f^twist);
    GL only (twist fixed to 0) when with_automorphisms is off.

    Exact, with no search space: each distinct twist F = f^twist is decided
    by one GF(p) nullspace solve, and its certificate is read digit by digit
    off that nullspace. The result is the invertible solution with the
    smallest (twist, b, a), comparing element indices, and None proves that
    no certificate exists. Every returned certificate has passed
    Certificate.verify."""
    f._check(g)
    ctx = f.ctx
    if not any(f.coeffs[1:]):
        raise BadParams("equivalence search needs a non-scalar map on the left")
    mono = _monomial_matrices(g)
    # f^(p^j) has period coeff_degree() in j, so the twists below it are
    # the distinct ones
    for j in range(f.coeff_degree() if with_automorphisms else 1):
        cert = _read_certificate(ctx, mono, f.frob_twist(j) if j else f, j)
        if cert is None:
            continue
        if not cert.verify(f, g):
            raise RuntimeError(f"{cert} read off the nullspace fails verification")
        return cert
    return None


# -- family membership sweeps ----------------------------------------------------

def find_u1_equivalence(f: LinPoly) -> Optional[Tuple[int, Certificate]]:
    """(s, certificate) for the smallest s coprime to n with U_f equivalent
    to the single-Frobenius subspace u1(s), or None."""
    ctx = f.ctx
    for s in range(1, ctx.n):
        if math.gcd(s, ctx.n) != 1:
            continue
        cert = subspace_equivalent(f, known_family(ctx, "u1", s=s))
        if cert is not None:
            return s, cert
    return None


def valid_u2_deltas(ctx) -> np.ndarray:
    """Every delta admissible for u2, in index order: GF(q)-norm outside
    {0, 1}. The norm of omega^j is omega^(j*(q^n - 1)/(q - 1)), which is 1
    iff q - 1 divides j."""
    ctx._need_whole_field(tables=True)
    js = np.arange(ctx.mult_order, dtype=np.int64)
    return np.sort(ctx.vgen_power(js[js % (ctx.q - 1) != 0]))


def u2_coset_deltas(ctx, s: int):
    """The deltas find_u2_equivalence tests for s, by scalar powers: each
    delta = 2, 3, ... of a new coset key delta^((q^n - 1)/m) whose norm
    key^(m/(q - 1)) (constant on a coset, as (q - 1) | m) is not 1, until
    all m - m/(q - 1) valid cosets are seen. FieldTooLarge above
    TABLE_LIMIT, where they are too many."""
    ctx._need_whole_field(tables=True)
    N, r = ctx.mult_order, ctx.q - 1
    m = math.gcd((ctx.q ** s - ctx.q ** (ctx.n - s)) % N, N)
    left, seen, delta = m - m // r, set(), 1
    while left:
        delta += 1
        key = ctx.pow_(delta, N // m)
        if key not in seen and ctx.pow_(key, m // r) != 1:
            left -= 1
            yield delta
        seen.add(key)


def find_u2_equivalence(f: LinPoly) -> Optional[Tuple[int, int, Certificate]]:
    """(s, delta, certificate) for the smallest s coprime to n and then the
    smallest valid delta with U_f equivalent to u2(s, delta), or None.

    For lambda != 0, lambda^(-q^(n-s)) * u2(s, delta)(lambda*x) is
    u2(s, delta * lambda^(q^s - q^(n-s))), so the verdict for delta holds
    for its whole coset modulo the subgroup H of (q^s - q^(n-s))-th powers.
    H has index m = gcd(q^s - q^(n-s), q^n - 1), and delta^((q^n - 1)/m)
    names the coset. One delta per coset is tested, the smallest valid
    one, in increasing order, so the answer is that of a sweep over every
    valid delta."""
    ctx = f.ctx
    for s in range(1, ctx.n):
        if math.gcd(s, ctx.n) != 1:
            continue
        for delta in u2_coset_deltas(ctx, s):
            cert = subspace_equivalent(f, known_family(ctx, "u2", s=s, delta=delta))
            if cert is not None:
                return s, delta, cert
    return None


def pseudoregulus_test(f: LinPoly) -> bool:
    """True iff U_f is equivalent to some u1(s), s coprime to n."""
    return find_u1_equivalence(f) is not None


def lp_type_test(f: LinPoly) -> bool:
    """True iff U_f is equivalent to some u2(s, delta)."""
    return find_u2_equivalence(f) is not None
