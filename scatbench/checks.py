"""Checks of scatpoly's outputs against the reference arithmetic in ref.py
or against proved properties. Every check takes plain data (coefficient
tuples, JSON-shaped dicts) and returns a list of failure messages, empty
when the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

from ref import RefField, psi_coeffs, rank_field, rank_modp, span_member


def paper_scattered(q: int, t: int, k: int) -> bool:
    """The paper's sufficient condition for psi_k to be scattered: n = 2t
    with t even and gcd(k, t) = 1 (any odd q), or t odd, gcd(k, 2t) = 1 and
    q = 1 mod 4."""
    if t % 2 == 0:
        return math.gcd(k, t) == 1
    return math.gcd(k, 2 * t) == 1 and q % 4 == 1


# -- scatteredness ------------------------------------------------------------------

def same_fiber(F: RefField, A, y: int, z: int) -> bool:
    """y, z nonzero, f(y)/y = f(z)/z and z/y outside GF(q)."""
    if not (0 < y < F.order and 0 < z < F.order):
        return False
    if F.mul(F.apply(A, y), z) != F.mul(F.apply(A, z), y):
        return False
    return not F.in_gf_q(F.mul(z, F.inv(y)))


def scales(F: RefField, A, rho: int, x: int) -> bool:
    """rho outside GF(q), x nonzero and f(rho*x) = rho*f(x)."""
    if not (0 < rho < F.order and 0 < x < F.order) or F.in_gf_q(rho):
        return False
    return F.apply(A, F.mul(rho, x)) == F.mul(rho, F.apply(A, x))


def check_scatter(F: RefField, k: int, coeffs, out: dict) -> list:
    """One psi_k through some of the fiber checker, the rank checker and
    the witness search: out maps 'fibers' and 'ranks' to
    ScatterVerdict.to_json() dicts and 'witness' to the search's (rho, x)
    or None, for the methods that ran."""
    errs = []
    label = f"psi_{k} at (q={F.q}, t={F.t})"
    if tuple(coeffs) != psi_coeffs(F, k):
        return [f"{label}: coefficients differ from the defining formula"]
    A = F.qpoly(coeffs)
    verdicts = {m: (v is None if m == "witness" else v["scattered"]) for m, v in out.items()}
    if len(set(verdicts.values())) != 1:
        errs.append(f"{label}: the methods disagree {verdicts}")
    fibers, ranks = out.get("fibers"), out.get("ranks")
    if fibers and fibers["scattered"]:
        if not paper_scattered(F.q, F.t, k):
            errs.append(f"{label}: scattered verdict outside the paper's condition")
        want = (F.order - 1) // (F.q - 1)
        if fibers["n_values"] != want:
            errs.append(f"{label}: {fibers['n_values']} values of f(x)/x, expected {want}")
    elif ranks and ranks["scattered"] and not paper_scattered(F.q, F.t, k):
        errs.append(f"{label}: scattered verdict outside the paper's condition")
    for verdict in (fibers, ranks):
        if verdict and not verdict["scattered"] and not same_fiber(F, A, *verdict["witness"]):
            errs.append(f"{label}: {verdict['method']} witness {verdict['witness']} does not verify")
    if ranks and not ranks["scattered"]:
        m = ranks["bad_shift"]
        if m is None or rank_modp((A + F.mat_mul(m)) % F.p, F.p) > F.N - 2 * F.e:
            errs.append(f"{label}: shift {m} does not leave a kernel of dimension 2")
    witness = out.get("witness")
    if witness is not None and not scales(F, A, *witness):
        errs.append(f"{label}: scaling witness {witness} does not verify")
    return errs


def check_baer(F: RefField, report: dict) -> list:
    """The subline intersection splits into two disjoint parts of
    (q^t - 1)/(q - 1) points each."""
    part = (F.q ** F.t - 1) // (F.q - 1)
    want = {"intersection_size": 2 * part, "subfield_part_size": part,
            "skew_part_size": part, "disjoint": True, "covers": True, "ok": True}
    bad = {key: report.get(key) for key, v in want.items() if report.get(key) != v}
    return [f"Baer partition at (q={F.q}, t={F.t}): {bad}, expected {want}"] if bad else []


# -- codes ---------------------------------------------------------------------------

def gauss_binom(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def mrd_distribution(q: int, n: int, d: int) -> list:
    """Rank distribution of an MRD code in GF(q)^(n x n) with minimum
    distance d (Delsarte 1978)."""
    out = [0] * (n + 1)
    out[0] = 1
    for r in range(d, n + 1):
        out[r] = gauss_binom(n, r, q) * sum(
            (-1) ** j * q ** (j * (j - 1) // 2) * gauss_binom(r, j, q)
            * (q ** (n * (r - d - j + 1)) - 1) for j in range(r - d + 1))
    return out


def code_basis(F: RefField, A_f):
    """GF(p)-basis of {a*f + b*id} as N x N matrices."""
    out = []
    for j in range(F.N):
        M = F.mat_mul(F.p ** j)
        out += [M @ A_f % F.p, M]
    return out


def check_field_block(F: RefField, block: dict) -> list:
    want = {"p": F.p, "e": F.e, "t": F.t, "q": F.q, "n": F.n,
            "modulus": list(F.modulus)}
    return [] if block == want else [f"field block {block}, expected {want}"]


def check_code_report(F: RefField, k: int, report: dict) -> list:
    """code-report JSON for psi_k. The number of rank-deficient shifts
    must equal |L_f|, computed from the reference tables."""
    label = f"code of psi_{k} at (q={F.q}, t={F.t})"
    q, n = F.q, F.n
    errs = check_field_block(F, report["field"])
    coeffs = psi_coeffs(F, k)
    A = F.qpoly(coeffs)
    sizes = F.fiber_sizes(A)
    n_lines = sum(sizes.values())
    scattered = set(sizes) == {q - 1}
    # a fiber of f(x)/x is a kernel of f - m*id minus 0, of size q^dim - 1
    d = n - next(j for j in range(n + 1) if q ** j - 1 == max(sizes))
    counts = report["rank_distribution"]["counts"]
    if report["size"] != q ** (2 * n) or report["degenerate"]:
        errs.append(f"{label}: size {report['size']}, degenerate {report['degenerate']}")
    if sum(counts) != q ** (2 * n) or report["rank_distribution"]["total"] != q ** (2 * n):
        errs.append(f"{label}: distribution totals {sum(counts)}, expected q^(2n)")
    deficient, rest = divmod(sum(counts[1:n]), q ** n - 1)
    if rest or deficient != n_lines:
        errs.append(f"{label}: {sum(counts[1:n])} words of rank < n, "
                    f"expected |L_f|*(q^n - 1) with |L_f| = {n_lines}")
    if report["parameters"] != {"rows": n, "cols": n, "q": q, "d": d}:
        errs.append(f"{label}: parameters {report['parameters']}, expected d = {d}")
    if report["mrd"] != scattered:
        errs.append(f"{label}: mrd flag {report['mrd']}, f scattered: {scattered}")
    if scattered and counts != mrd_distribution(q, n, n - 1):
        errs.append(f"{label}: distribution differs from the MRD closed form")
    for side in ("left", "right"):
        errs += check_idealiser(F, coeffs, report["idealisers"][side], side, scattered)
    return errs


def check_idealiser(F: RefField, coeffs, rep: dict, side: str, scattered: bool) -> list:
    """Each basis element phi keeps the code: phi o c (left) or c o phi
    (right) lies in the code for every c of a GF(p)-basis of it."""
    label = f"{side} idealiser at (q={F.q}, t={F.t})"
    p, N = F.p, F.N
    errs = []
    if rep["side"] != side:
        errs.append(f"{label}: side {rep['side']}")
    basis = [F.qpoly(b) for b in rep["basis"]]
    if rep["dim_p"] != len(basis) or rep["dim_q"] * F.e != len(basis):
        errs.append(f"{label}: dim_p {rep['dim_p']}, dim_q {rep['dim_q']}, {len(basis)} basis maps")
    flat = np.array([B.ravel() for B in basis]).reshape(len(basis), N * N)
    if len(basis) and rank_modp(flat, p) != len(basis):
        errs.append(f"{label}: basis is not GF(p)-independent")
    code = code_basis(F, F.qpoly(coeffs))
    in_code = span_member(np.array([C.ravel() for C in code]), p)
    for i, B in enumerate(basis):
        for C in code:
            prod = B @ C % p if side == "left" else C @ B % p
            if not in_code(prod.ravel()):
                errs.append(f"{label}: basis map {i} moves the code out of itself")
                break
    in_ideal = span_member(flat, p) if len(basis) else (lambda v: False)
    if not in_ideal(np.eye(N, dtype=np.int64).ravel()):
        errs.append(f"{label}: the identity is not in the span")
    if side == "left" and not all(in_ideal(F.mat_mul(p ** j).ravel()) for j in range(N)):
        errs.append(f"{label}: misses a scalar map x -> lambda*x")
    if rep["closed"] is not None and (not rep["closed"] or not rep["contains_identity"]):
        errs.append(f"{label}: closed {rep['closed']}, contains_identity {rep['contains_identity']}")
    if scattered and rep["is_field"] is not None and not rep["is_field"]:
        errs.append(f"{label}: not a field, but idealisers of MRD codes are fields")
    return errs


# -- geometry ---------------------------------------------------------------------------

def gamma_rows(F: RefField, k: int):
    """x_0 = 0 and x_k + x_(t-k) - x_(t+k) + x_(n-k) = 0."""
    n, t = F.n, F.t
    row = [0] * n
    for slot, c in ((k, 1), (t - k, 1), (t + k, F.neg(1)), (n - k, 1)):
        row[slot % n] = F.add(row[slot % n], c)
    return [[1] + [0] * (n - 1), row]


def sigma_rows(F: RefField, rows, m: int):
    """Equations of the image under sigma^m, sigma(x)_i = x_(i-1)^q."""
    n = F.n
    return [[F.frob(r[(i - m) % n], m) for i in range(n)] for r in rows]


def meet_dim(F: RefField, rows, powers) -> int:
    eqs = [r for m in powers for r in sigma_rows(F, rows, m)]
    return F.n - 1 - rank_field(F, eqs)


def check_geometry(F: RefField, k: int, report: dict) -> list:
    """geometry JSON for gamma_k, recomputed by elimination over GF(q^n)."""
    label = f"gamma_{k} at (q={F.q}, t={F.t})"
    n = F.n
    errs = check_field_block(F, report["field"])
    rows = gamma_rows(F, k)
    gamma = report["gamma"]
    basis = gamma["basis"]
    on = all(dot(F, r, v) == 0 for r in rows for v in basis)
    if gamma["projdim"] != n - 3 or len(basis) != n - 2 or not on \
            or rank_field(F, basis) != n - 2:
        errs.append(f"{label}: gamma basis does not span the subspace of its equations")
    dims = [meet_dim(F, rows, [0, 1]), meet_dim(F, rows, [0, 1, 2])]
    if report["self_intersection_dims"] != dims:
        errs.append(f"{label}: self intersections {report['self_intersection_dims']}, expected {dims}")
    for s in (1, n - 1):
        want = next(j for j in range(1, n + 1)
                    if meet_dim(F, rows, [s * i for i in range(j + 1)]) > n - 3 - 2 * j)
        if report["intn"][str(s)] != want:
            errs.append(f"{label}: intn({s}) = {report['intn'][str(s)]}, expected {want}")
    pseudo = any(meet_dim(F, rows, [0, m]) == n - 4
                 for m in range(1, n) if math.gcd(m, n) == 1)
    # P_u has x_0 = u != 0, so it is never on gamma; projecting the orbit
    # from gamma recovers the linear set of 2*psi_k (the paper's construction)
    if report["meets_orbit"] or not report["projection_matches"] \
            or report["pseudoregulus"] != pseudo:
        errs.append(f"{label}: meets_orbit {report['meets_orbit']}, projection_matches "
                    f"{report['projection_matches']}, pseudoregulus {report['pseudoregulus']}")
    return errs


def dot(F: RefField, row, vec) -> int:
    acc = 0
    for a, b in zip(row, vec):
        acc = F.add(acc, F.mul(int(a), int(b)))
    return acc


# -- equivalence -------------------------------------------------------------------------

def certificate_holds(F: RefField, f, g, cert: dict) -> bool:
    """det M != 0 and g(a*x + b*F(x)) = c*x + d*F(x), F = f^(p^twist),
    compared as GF(p)-matrices, i.e. on a GF(p)-basis of the field."""
    (a, b), (c, d) = cert["matrix"]
    if F.sub(F.mul(a, d), F.mul(b, c)) == 0:
        return False
    tw = F.qpoly([F.frob_p(x, cert["twist"]) for x in f])
    lhs = F.qpoly(g) @ ((F.mat_mul(a) + F.mat_mul(b) @ tw) % F.p) % F.p
    rhs = (F.mat_mul(c) + F.mat_mul(d) @ tw) % F.p
    return bool((lhs == rhs).all())


def check_equiv(F: RefField, f, g, cert, expect: str) -> list:
    """expect names what is known about the pair: 'equivalent' (built so,
    or proved), or the reason a None is correct: 'invariant' (fiber-size
    histograms differ) or 'theorem' (psi is new at n = 8)."""
    label = f"pair {tuple(f)} ~ {tuple(g)} at (q={F.q}, t={F.t})"
    if cert is not None:
        if not certificate_holds(F, f, g, cert):
            return [f"{label}: certificate {cert} does not verify"]
        if expect != "equivalent":
            return [f"{label}: verified certificate contradicts the {expect}"]
        return []
    if expect == "equivalent":
        return [f"{label}: no certificate for an equivalent pair"]
    if expect == "invariant" and F.fiber_sizes(F.qpoly(f)) == F.fiber_sizes(F.qpoly(g)):
        return [f"{label}: None, but the fiber-size histograms agree"]
    return []
