"""The folded Frobenius family psi_k and scatteredness checkers.

Over the tower GF(q) < GF(q^t) < GF(q^n), n = 2t, the field splits as
GF(q^t) + W with W = ker(x + x^(q^t)). psi_k acts as the q^(t-k) Frobenius
on the subfield half and as the q^k Frobenius on W. A q-polynomial f is
scattered when every fiber of x -> f(x)/x on nonzero inputs has exactly
q - 1 elements, equivalently ker(f + m*id) has GF(q)-dimension <= 1 for
every scalar m. Two independent checkers of that property live here, plus
a direct search for counterexample pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import BadK, NotScattered
from .linpoly import LinPoly
from . import linalg


# -- construction ------------------------------------------------------------

def _norm_k(ctx, k: int) -> int:
    k = int(k) % ctx.n
    if k == 0:
        raise BadK("k must not be divisible by 2t")
    return k


def alpha_poly(ctx) -> LinPoly:
    """Half-sum piece: projects onto the subfield half, then applies the
    q^(t-1) Frobenius: ((x + x^(q^t))^(q^(t-1))) / 2."""
    coeffs = [0] * ctx.n
    coeffs[ctx.t - 1] = ctx.two_inv
    coeffs[2 * ctx.t - 1] = ctx.two_inv
    return LinPoly(ctx, coeffs)


def beta_poly(ctx) -> LinPoly:
    """Half-difference piece: projects onto W, then applies the q Frobenius:
    ((x - x^(q^t))^q) / 2."""
    coeffs = [0] * ctx.n
    coeffs[1] = ctx.two_inv
    coeffs[(ctx.t + 1) % ctx.n] = ctx.neg(ctx.two_inv)
    return LinPoly(ctx, coeffs)


def build_psi(ctx, k: int = 1) -> LinPoly:
    """psi_k(x) = (x^(q^k) + x^(q^(t-k)) - x^(q^(t+k)) + x^(q^(2t-k))) / 2,
    exponents taken mod 2t with colliding terms accumulated."""
    k = _norm_k(ctx, k)
    n, t = ctx.n, ctx.t
    half = ctx.two_inv
    coeffs = [0] * n
    for slot, sign in ((k, 1), ((t - k) % n, 1), ((t + k) % n, -1), ((n - k) % n, 1)):
        term = half if sign > 0 else ctx.neg(half)
        coeffs[slot] = ctx.add(coeffs[slot], term)
    return LinPoly(ctx, coeffs)


def theorem_predicate(ctx, k: int) -> bool:
    """Predicted scatteredness of psi_k from the arithmetic of (q, t, k)
    alone: true iff t is even and gcd(k, t) = 1, or t is odd, gcd(k, 2t) = 1
    and q = 1 mod 4."""
    k = _norm_k(ctx, k)
    t = ctx.t
    if t % 2 == 0:
        return math.gcd(k, t) == 1
    return math.gcd(k, 2 * t) == 1 and ctx.q % 4 == 1


# -- verdicts ----------------------------------------------------------------

@dataclass(frozen=True)
class ScatterVerdict:
    scattered: bool
    method: str
    # two nonzero elements in one fiber of f(x)/x whose ratio is outside
    # GF(q); present exactly when not scattered
    witness: Optional[Tuple[int, int]] = None
    n_values: Optional[int] = None   # fibers method: distinct f(x)/x values
    bad_shift: Optional[int] = None  # ranks method: m with dim ker(f + m*id) >= 2

    def to_json(self):
        return {
            "scattered": self.scattered,
            "method": self.method,
            "witness": list(self.witness) if self.witness else None,
            "n_values": self.n_values,
            "bad_shift": self.bad_shift,
        }


def _witness_in_fiber(ctx, A: np.ndarray) -> Tuple[int, int]:
    """(y, z) from the fiber ker(A) minus 0, A being the GF(p)-matrix of
    f - v*id for a value v whose fiber has more than q - 1 elements: y is
    its smallest element and z the smallest with z / y outside GF(q).
    GF(q)*y holds q - 1 elements, so z is among the first q, which the
    span of the first e + 1 rows of the kernel's basis lists ascending
    (see linalg.modp_nullspace): the kernel itself, which may be the
    whole field, is never listed."""
    basis = linalg.modp_nullspace(A, ctx.p)
    y, *rest = linalg.span_indices(basis[:ctx.e + 1].T, ctx.p)[1:].tolist()
    inv_y = ctx.inv(y)
    return y, next(z for z in rest if not ctx.in_subfield(ctx.mul(z, inv_y)))


def check_witness(f: LinPoly, witness: Tuple[int, int]) -> bool:
    """True when y, z are nonzero, lie in one fiber of f(x)/x and their
    ratio is outside GF(q)."""
    ctx = f.ctx
    y, z = witness
    if y == 0 or z == 0:
        return False
    vy = ctx.div(f(y), y)
    vz = ctx.div(f(z), z)
    ratio = ctx.div(z, y)
    return vy == vz and ctx.frob(ratio, 1) != ratio


def is_scattered_fibers(f: LinPoly) -> ScatterVerdict:
    """Count distinct values of f(x)/x over nonzero x: the map is scattered
    iff there are (q^n - 1)/(q - 1) of them. On failure returns the fiber
    witness associated with the smallest oversized value.

    The pass evaluates f at the sigma_d-orbit representatives of the
    GF(q)*-classes omega^j*GF(q)*, j < R = (q^n - 1)/(q - 1), only, and
    keys each Frobenius orbit of bins by its least bin (see
    LinPoly._fibers): n_values is the sum of the orbits' lengths. A
    fiber is oversized when its weight exceeds one class; only those
    orbits are expanded to their bins, to find the value of smallest
    index. The fiber of the chosen value v is ker(A_f - M_v) minus 0, from
    which _witness_in_fiber reads the same witness as a pass over every
    nonzero x would."""
    ctx = f.ctx
    keys, lengths, weights = f._fibers()
    n_values = int(lengths.sum())
    if n_values == (ctx.order - 1) // (ctx.q - 1):
        return ScatterVerdict(True, "fibers", None, n_values, None)
    # bins run in log order, values in index order: 0, whose bin is the
    # kernel's, last, comes first; else take the oversized value of
    # smallest index
    big = weights > 1
    if big[-1] and keys[-1] == ctx.mult_order:
        v = 0
    else:
        v = int(ctx.vgen_power(f._orbit_bins(keys[big], lengths[big])).min())
    witness = _witness_in_fiber(ctx, f.matrix() - ctx._mult_matrix(v))
    return ScatterVerdict(False, "fibers", witness, n_values, None)


def shift_ranks(f: LinPoly, ms: Optional[np.ndarray] = None) -> np.ndarray:
    """Ranks of f + m*id for every shift m in ms (all field elements when
    ms is None), as GF(p)-matrices A_f + M_m, linalg.SLICE at a time; A_f
    is built once per map (LinPoly.matrix)."""
    ctx = f.ctx
    if ms is None:
        ctx._need_whole_field()
        ms = np.arange(ctx.order, dtype=np.int64)
    A = f.matrix()
    out = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, len(ms), linalg.SLICE):
        out.append(linalg.shift_dickson_ranks(ctx, A, ms[lo:lo + linalg.SLICE]))
    return np.concatenate(out)


def shift_orbits(f: LinPoly):
    """Yield (ms, sizes) for the shifts m of the field in ascending,
    count-sized batches (linalg.orbit_batches): the shifts that are the
    smallest of their orbit under the group below, and the sizes of those
    orbits (FieldCtx.frobenius_orbits over the shifts).

    sigma_d is x -> x^(p^d), d = f.coeff_degree(), so it commutes with f:
    sigma_d(f(x) + m*x) = f(sigma_d(x)) + sigma_d(m)*sigma_d(x), and
    sigma_d maps ker(f + m*id) onto ker(f + sigma_d(m)*id). With
    (m', s) = f.support_coset() and G = (q^m' - 1)/(q - 1), the rank of
    f + m*id is also constant on m*mu_G, so the group is generated by
    sigma_d and the product by a primitive G-th root of unity (G = 1 when
    m' = 1: sigma_d alone). The rank of f + m*id is therefore constant on
    each orbit. The orbits depend on the field, d and G only, so each
    slice is filtered once per field and then read from the context's
    memo by every map with the same d and G."""
    ctx = f.ctx
    ctx._need_whole_field()
    m, _ = f.support_coset()
    G = (ctx.q ** m - 1) // (ctx.q - 1)
    yield from linalg.orbit_batches(ctx.frobenius_orbits("shifts", f.coeff_degree(), G))


def is_scattered_ranks(f: LinPoly) -> ScatterVerdict:
    """Test dim ker(f + m*id) <= 1 for every shift m via Dickson ranks.
    Independent of the fiber counter; same verdict contract.

    The rank is constant on the orbits of the shifts under sigma_d and,
    for maps whose support lies in one coset s + m'Z prime to m', under
    the product by mu_G (see shift_orbits and LinPoly.support_coset), so
    only the smallest shift of each orbit is ranked. The smallest bad
    shift is the smallest of its orbit, and the sweep ascends, so
    bad_shift and the witness are those of a sweep over every shift. Each
    batch of representatives is one kernel call, and the sweep stops after
    the first batch with a violation, so the full sweep cost is paid only
    on scattered inputs."""
    ctx = f.ctx
    for ms, _ in shift_orbits(f):
        bad = np.flatnonzero(shift_ranks(f, ms) < ctx.n - 1)
        if len(bad):
            # the fiber of -m is ker(A_f + M_m) minus 0
            m = int(ms[bad[0]])
            witness = _witness_in_fiber(ctx, f.matrix() + ctx._mult_matrix(m))
            return ScatterVerdict(False, "ranks", witness, None, m)
    return ScatterVerdict(True, "ranks", None, None, None)


def _commutator_tensor(f: LinPoly) -> np.ndarray:
    """(e*n, e*n, e*n) stack whose slot d is A_f M_(p^d) - M_(p^d) A_f, the
    GF(p)-matrix of x -> f(p^d * x) - p^d * f(x); the matrix of
    C_rho(x) = f(rho*x) - rho*f(x) is the sum of the slots weighted by the
    digits of rho."""
    A = f.matrix()
    Mp = linalg.mult_tensor(f.ctx)
    return (A @ Mp - Mp @ A) % f.ctx.p


def nonscattered_witness_search(f: LinPoly) -> Optional[Tuple[int, int]]:
    """Search for (rho, x), rho outside GF(q), x nonzero, f(rho*x) = rho*f(x);
    such a pair exists iff f is not scattered. rho = omega^j is the hit of
    smallest j, and x the smallest nonzero index in the kernel of
    C_rho(x) = f(rho*x) - rho*f(x): the first row of the nullspace basis
    of C_rho's matrix (see linalg.modp_nullspace), with no pass over the
    kernel. Returns None when f is scattered.

    f is GF(q)-linear, so C_(lam*rho) = lam*C_rho for lam in GF(q)*, which
    is generated by omega^R, R = (q^n - 1)/(q - 1): rho and lam*rho have
    the same kernel. If omega^j hits, so does omega^(j mod R), and j mod R
    is nonzero since omega^j lies outside GF(q). The first hit over every
    rho outside GF(q) therefore has j < R, and the sweep runs over
    j in [1, R) only, ranking each C_rho from the digit planes of rho
    against one commutator tensor.

    sigma_d: x -> x^(p^d), d = f.coeff_degree(), commutes with f, so
    C_(sigma_d(rho))(sigma_d(x)) = sigma_d(C_rho(x)): rho and sigma_d(rho)
    = omega^(j*p^d) hit together. And for every f, rho and rho^-1 hit
    together: if f(rho*x) = rho*f(x), then f(rho^-1*y) = rho^-1*f(y) with
    y = rho*x, and rho^-1 = omega^(-j) lies in the class of -j mod R. So
    j runs over the representatives of the orbits of the classes j in
    [0, R) under j -> j*p^d and j -> -j that FieldCtx.frobenius_orbits
    yields (G = 2), in ascending count-sized batches
    (linalg.orbit_batches), j = 0 (rho in GF(q)) skipped. The smallest hit
    is the smallest of its orbit, so the sweep returns the same pair as
    one over every j. The driver filters a slice only when a batch first
    needs it and keeps it on the context, so a sweep that hits early
    filters little, and a later witness search with the same d reads the
    kept slices."""
    ctx = f.ctx
    T = _commutator_tensor(f)
    for js, _ in linalg.orbit_batches(ctx.frobenius_orbits("classes", f.coeff_degree(), 2)):
        rhos = ctx.vgen_power(js[js > 0])
        hit = np.flatnonzero(linalg.digit_dickson_ranks(ctx, T, rhos) < ctx.n)
        if len(hit):
            rho = int(rhos[hit[0]])
            C = linalg.digit_contract(ctx, T, rho)
            return rho, ctx.from_digits(linalg.modp_nullspace(C, ctx.p)[0])
    return None


# -- Baer subline partition ----------------------------------------------------

@dataclass(frozen=True)
class BaerReport:
    """How the linear set of psi_k meets the subline over GF(q^t).

    The intersection splits into the images of the two halves of the field:
    points (1, h^(q^(t-k) - 1)) from subfield inputs h, and points
    (1, r^(q^k - 1)) from inputs r in W."""
    k: int
    intersection_size: int
    subfield_part_size: int
    skew_part_size: int
    disjoint: bool
    covers: bool

    @property
    def ok(self) -> bool:
        return (self.disjoint and self.covers
                and self.subfield_part_size == self.skew_part_size
                and self.intersection_size
                == self.subfield_part_size + self.skew_part_size)

    def to_json(self):
        return {
            "k": self.k,
            "intersection_size": self.intersection_size,
            "subfield_part_size": self.subfield_part_size,
            "skew_part_size": self.skew_part_size,
            "disjoint": self.disjoint,
            "covers": self.covers,
            "ok": self.ok,
        }


def baer_partition_check(ctx, k: int) -> BaerReport:
    """Intersect the linear set of psi_k with the subline over GF(q^t) and
    verify it is the disjoint union of the two predicted power-coset parts,
    each of size (q^t - 1)/(q - 1). Requires psi_k scattered, which is
    the fiber checker's test on the same values.

    Everything is read in exponents, with s = q^t + 1 and N = q^n - 1:
    GF(q^t)* is omega^j for j = 0 mod s and W* is omega^j for j = s/2
    mod s (see FieldCtx.w_unity_root). So a value of f(x)/x lies in
    GF(q^t) iff its bin is 0 mod s, the bin N of the value 0 included, as
    s divides N; and (omega^j)^m is omega^(j*m mod N). s divides N and is
    prime to p, so a bin's Frobenius images b*p^i mod N are 0 mod s
    exactly when b is: only the orbits whose key is 0 mod s (see
    LinPoly._fibers) are expanded to their bins. The bins of the values
    and the exponents of the parts are compared as sets, as the values
    would be."""
    k = _norm_k(ctx, k)
    f = build_psi(ctx, k)
    keys, lengths, _ = f._fibers()
    t, n, N = ctx.t, ctx.n, ctx.mult_order
    if lengths.sum() != N // (ctx.q - 1):
        raise NotScattered(f"psi_{k} is not scattered at q={ctx.q}, t={ctx.t}")

    s = ctx.q ** t + 1
    js = np.arange(0, N, s, dtype=np.int64)
    part_sub = np.unique(js * ((ctx.q ** ((t - k) % n) - 1) % N) % N)
    part_skew = np.unique((js + s // 2) * ((ctx.q ** (k % n) - 1) % N) % N)

    on = keys % s == 0
    inter = np.sort(f._orbit_bins(keys[on], lengths[on]))

    union = np.union1d(part_sub, part_skew)
    disjoint = len(np.intersect1d(part_sub, part_skew)) == 0
    covers = np.array_equal(inter, union)
    return BaerReport(k, int(len(inter)), int(len(part_sub)),
                      int(len(part_skew)), bool(disjoint), bool(covers))
