"""Print one sha1 line per deterministic output of scatpoly, so that two
source trees can be checked for byte-identical results.

Run it once against each tree and compare the outputs (the last line is
the digest of all the lines above it):

    PYTHONPATH=<tree>/src python3 tools/same_bytes.py

Covered: the `verify-scattered` JSON for every k at (5,3), (3,4), (3,5),
(5,4), (3,2,3) and (13,3); `code-report` for k = 1, 2 at (5,3) and (3,4);
`geometry` for every k coprime to n at (3,3) and (3,4); `equiv` of psi:1
against psi:3, psi:5, pseudoregulus and lp-type at (3,3), (3,4) and
(3,2,3); at q = 9 `eval_all` of every psi_k and omega^j for every j, and
`code-report` for k = 1, 2 at (3,2,3); the idealiser JSON, with its
field flags, of both sides for every k at (3,3); then the same for every
k at (5,3) and (3,2,3), and for x^(q^t) and two seeded sparse maps at
(3,4); then `line_values` and `fiber_histogram` of every psi_k at (5,3),
(3,4) and (3,2,3), the same with the three verdicts of a map with
coefficients in GF(p^2) and GF(p^4) at (3,2,3), and the Baer JSON for
k = 1, 5 at (5,3) and (13,3); then, for every psi_k at (5,3), (3,4) and
(3,5), every rank the batched kernel returns: the ranks of f + m*id over
every shift m, and of C_rho over every class rho = omega^j, 0 < j < R,
R = (q^n - 1)/(q - 1); then, on fields that build no tables, `equiv` of
psi:1 against lp-type at (13,3), against psi:5 and pseudoregulus at
(191,3) and against psi:7 at (3,8), and the moduli smallest_irreducible
(p, m) for (3,16), (5,10), (7,8), (11,8), (13,6) and (191,6); then the
idealiser JSON without its field flags, both sides, for every k at
(3,2,3), and with them for 2*id and a seeded full-support map at (5,3);
then the fiber verdict and `fiber_histogram` of x + x^(q^t), whose kernel
is W, and of two seeded sparse maps that are not scattered, at (13,3) and
(5,4); then the `is_scattered_ranks` JSON, `nonscattered_witness_search`
and `rank_distribution` of every psi_k and of two seeded maps with odd
support that are not scattered, at (3,4), (5,4) and (7,4), where the
shift sweeps cut by mu_(q+1) and the witness search by rho <-> rho^-1
(psi_2 at (5,4) hits at j = 16276, past the first batch); then the
`subspace_equivalent` certificates of seeded pairs at (3,3), (5,3),
(3,4) and (3,2,3): g = mu*f^tau(lam*x), and g = (c + d*F) o (a + b*F)^-1
with F = f^tau and b nonzero, for tau nonzero, f sparse or of full
support; and of psi_1 against u2(s, delta) for 20 seeded (s, delta) at
(3,4); then the eight vector kernels (vadd, vsub, vneg, vmul, vscale,
vinv, vfrob for every k < n, vpow_int) on seeded arrays at (3,2,3) and
(5,4), which read the Zech logs and the q-Frobenius table too; then
`rank_distribution` of the zero map, 2*id, x + x^(q^t) and two seeded
sparse maps at (5,3) and (3,2,3), and `code-report` for k = 1, 2 at
(7,4), a field above the eager table bound.
New outputs go at the end, so a prefix of the lines keeps its digest as
the list grows.
Fields are written (p, t) for e = 1 and (p, e, t) otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from math import gcd

import numpy as np

from scatpoly import cli, codes, linalg
from scatpoly.fields import build_field, smallest_irreducible
from scatpoly.linpoly import LinPoly
from scatpoly.linsets import known_family, subspace_equivalent
from scatpoly.scattered import (_commutator_tensor, baer_partition_check, build_psi,
                                is_scattered_fibers, is_scattered_ranks,
                                nonscattered_witness_search, shift_ranks)


def _sha(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def _cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"exit={code} {_sha(out.getvalue().encode())}"


def _field_args(pet):
    p, e, t = pet
    return ["--p", str(p), "--e", str(e), "--t", str(t)]


def _lines():
    for pet in ((5, 1, 3), (3, 1, 4), (3, 1, 5), (5, 1, 4), (3, 2, 3), (13, 1, 3)):
        for k in range(1, 2 * pet[2]):
            argv = ["verify-scattered", *_field_args(pet), "--k", str(k)]
            yield " ".join(argv), _cli(argv)
    for pet in ((5, 1, 3), (3, 1, 4)):
        for k in (1, 2):
            argv = ["code-report", *_field_args(pet), "--k", str(k)]
            yield " ".join(argv), _cli(argv)
    for pet in ((3, 1, 3), (3, 1, 4)):
        n = 2 * pet[2]
        for k in range(1, n):
            if gcd(k, n) == 1:
                argv = ["geometry", *_field_args(pet), "--k", str(k)]
                yield " ".join(argv), _cli(argv)
    for pet in ((3, 1, 3), (3, 1, 4), (3, 2, 3)):
        for right in ("psi:3", "psi:5", "pseudoregulus", "lp-type"):
            argv = ["equiv", *_field_args(pet), "--left", "psi:1", "--right", right]
            yield " ".join(argv), _cli(argv)
    ctx = build_field(3, 2, 3)
    for k in range(1, ctx.n):
        yield f"eval_all psi_{k} at (3,2,3)", _sha(build_psi(ctx, k).eval_all().tobytes())
    js = np.arange(ctx.mult_order, dtype=np.int64)
    yield "omega^j at (3,2,3)", _sha(ctx.vgen_power(js).tobytes())
    for k in (1, 2):
        argv = ["code-report", *_field_args((3, 2, 3)), "--k", str(k)]
        yield " ".join(argv), _cli(argv)
    ctx = build_field(3, 1, 3)
    for k in range(1, ctx.n):
        for side in ("left", "right"):
            yield _idealiser_line(build_psi(ctx, k), side, f"psi_{k} at (3,3)")
    for name, pet in (("(5,3)", (5, 1, 3)), ("(3,2,3)", (3, 2, 3))):
        ctx = build_field(*pet)
        for k in range(1, ctx.n):
            for side in ("left", "right"):
                yield _idealiser_line(build_psi(ctx, k), side, f"psi_{k} at {name}")
    ctx = build_field(3, 1, 4)
    rng = np.random.default_rng(34)
    maps = {"x^(q^t)": LinPoly.monomial(ctx, 1, ctx.t)}
    for _ in range(2):
        coeffs = [0] * ctx.n
        for slot in rng.choice(ctx.n, size=2, replace=False):
            coeffs[int(slot)] = int(rng.integers(1, ctx.order))
        maps[f"sparse map {coeffs}"] = LinPoly(ctx, coeffs)
    for label, f in maps.items():
        for side in ("left", "right"):
            yield _idealiser_line(f, side, f"{label} at (3,4)")
    for name, pet in (("(5,3)", (5, 1, 3)), ("(3,4)", (3, 1, 4)), ("(3,2,3)", (3, 2, 3))):
        ctx = build_field(*pet)
        for k in range(1, ctx.n):
            yield from _fiber_lines(build_psi(ctx, k), f"psi_{k} at {name}")
    # coefficients in GF(3^2) and GF(3^4): x -> x^9 commutes with the map
    ctx = build_field(3, 2, 3)
    f = LinPoly(ctx, [0, ctx.gen_power(ctx.mult_order // 8), 0,
                      ctx.gen_power(ctx.mult_order // 80 * 7), 1, 0])
    label = f"subfield map {list(f.coeffs)} at (3,2,3)"
    yield from _fiber_lines(f, label)
    for check in (is_scattered_fibers, is_scattered_ranks):
        yield f"{check.__name__} {label}", _json_sha(check(f).to_json())
    yield f"nonscattered_witness_search {label}", _json_sha(nonscattered_witness_search(f))
    for name, pet in (("(5,3)", (5, 1, 3)), ("(13,3)", (13, 1, 3))):
        for k in (1, 5):
            yield (f"baer psi_{k} at {name}",
                   _json_sha(baer_partition_check(build_field(*pet), k).to_json()))
    for name, pet in (("(5,3)", (5, 1, 3)), ("(3,4)", (3, 1, 4)), ("(3,5)", (3, 1, 5))):
        ctx = build_field(*pet)
        rhos = ctx.vgen_power(np.arange(1, ctx.mult_order // (ctx.q - 1)))
        for k in range(1, ctx.n):
            f = build_psi(ctx, k)
            yield f"shift_ranks psi_{k} at {name}", _sha(shift_ranks(f).tobytes())
            ranks = linalg.digit_dickson_ranks(ctx, _commutator_tensor(f), rhos)
            yield f"class ranks psi_{k} at {name}", _sha(ranks.tobytes())
    for pet, right in (((13, 1, 3), "lp-type"), ((191, 1, 3), "psi:5"),
                       ((191, 1, 3), "pseudoregulus"), ((3, 1, 8), "psi:7")):
        argv = ["equiv", *_field_args(pet), "--left", "psi:1", "--right", right]
        yield " ".join(argv), _cli(argv)
    for p, m in ((3, 16), (5, 10), (7, 8), (11, 8), (13, 6), (191, 6)):
        yield f"smallest_irreducible({p}, {m})", _sha(repr(smallest_irreducible(p, m)).encode())
    ctx = build_field(3, 2, 3)
    for k in range(1, ctx.n):
        for side in ("left", "right"):
            yield _idealiser_line(build_psi(ctx, k), side,
                                  f"psi_{k} at (3,2,3) without flags", check_flags=False)
    ctx = build_field(5, 1, 3)
    rng = np.random.default_rng(53)
    full = [int(c) for c in rng.integers(1, ctx.order, size=ctx.n)]
    for label, f in (("2*id", LinPoly.monomial(ctx, 2, 0)),
                     (f"full-support map {full}", LinPoly(ctx, full))):
        for side in ("left", "right"):
            yield _idealiser_line(f, side, f"{label} at (5,3)")
    for name, pet in (("(13,3)", (13, 1, 3)), ("(5,4)", (5, 1, 4))):
        ctx = build_field(*pet)
        maps = {"x + x^(q^t)": LinPoly.identity(ctx) + LinPoly.monomial(ctx, 1, ctx.t)}
        rng = np.random.default_rng(ctx.order)
        while len(maps) < 3:
            coeffs = [0] * ctx.n
            for slot in rng.choice(ctx.n, size=2, replace=False):
                coeffs[int(slot)] = int(rng.integers(1, ctx.order))
            f = LinPoly(ctx, coeffs)
            if not is_scattered_fibers(f).scattered:
                maps[f"sparse map {coeffs}"] = f
        for label, f in maps.items():
            label = f"{label} at {name}"
            yield f"is_scattered_fibers {label}", _json_sha(is_scattered_fibers(f).to_json())
            yield f"fiber_histogram {label}", _json_sha(sorted(f.fiber_histogram().items()))
    for name, pet in (("(3,4)", (3, 1, 4)), ("(5,4)", (5, 1, 4)), ("(7,4)", (7, 1, 4))):
        ctx = build_field(*pet)
        maps = {f"psi_{k}": build_psi(ctx, k) for k in range(1, ctx.n)}
        rng = np.random.default_rng(ctx.order + 1)
        while len(maps) < ctx.n + 1:
            coeffs = [0] * ctx.n
            for slot in rng.choice(range(1, ctx.n, 2), size=2, replace=False):
                coeffs[int(slot)] = int(rng.integers(1, ctx.order))
            f = LinPoly(ctx, coeffs)
            if not is_scattered_fibers(f).scattered:
                maps[f"odd map {coeffs}"] = f
        for label, f in maps.items():
            label = f"{label} at {name}"
            yield f"is_scattered_ranks {label}", _json_sha(is_scattered_ranks(f).to_json())
            yield f"nonscattered_witness_search {label}", _json_sha(nonscattered_witness_search(f))
            yield (f"rank_distribution {label}",
                   _json_sha(codes.rank_distribution(codes.build_code(f)).to_json()))
    for name, pet in (("(3,3)", (3, 1, 3)), ("(5,3)", (5, 1, 3)), ("(3,4)", (3, 1, 4)),
                      ("(3,2,3)", (3, 2, 3))):
        ctx = build_field(*pet)
        rng = np.random.default_rng(ctx.order + 3)

        def unit():
            return int(rng.integers(1, ctx.order))
        pairs = 0
        while pairs < 6:
            coeffs = [unit() for _ in range(ctx.n)]
            if pairs % 2 == 0:
                coeffs = [0] * ctx.n
                for slot in rng.choice(range(1, ctx.n), size=2, replace=False):
                    coeffs[int(slot)] = unit()
            f, tau = LinPoly(ctx, coeffs), int(rng.integers(1, ctx.en))
            F = f.frob_twist(tau)
            if pairs < 3:
                lam, mu = unit(), unit()
                g, label = F.compose(LinPoly.monomial(ctx, lam, 0)).scale(mu), f"lam={lam} mu={mu}"
            else:
                a, b, c, d = (unit() for _ in range(4))
                h = LinPoly.monomial(ctx, a, 0) + F.scale(b)
                if ctx.mul(a, d) == ctx.mul(b, c) or h.rank() < ctx.n:
                    continue
                g = (LinPoly.monomial(ctx, c, 0) + F.scale(d)).compose(_inverse(h))
                label = f"M={[[a, b], [c, d]]}"
            pairs += 1
            cert = subspace_equivalent(f, g)
            yield (f"subspace_equivalent {list(coeffs)} tau={tau} {label} at {name}",
                   _json_sha(None if cert is None else cert.to_json()))
    ctx = build_field(3, 1, 4)
    rng = np.random.default_rng(ctx.order + 4)
    psi1 = build_psi(ctx, 1)
    for _ in range(20):
        s = int(rng.choice([1, 3, 5, 7]))
        delta = int(rng.integers(2, ctx.order))
        while ctx.norm(delta, "q") in (0, 1):
            delta = int(rng.integers(2, ctx.order))
        cert = subspace_equivalent(psi1, known_family(ctx, "u2", s=s, delta=delta))
        yield (f"subspace_equivalent psi_1 u2({s}, {delta}) at (3,4)",
               _json_sha(None if cert is None else cert.to_json()))
    for name, pet in (("(3,2,3)", (3, 2, 3)), ("(5,4)", (5, 1, 4))):
        ctx = build_field(*pet)
        rng = np.random.default_rng(ctx.order + 5)
        a, b = rng.integers(0, ctx.order, size=(2, 4096))
        c, m = (int(v) for v in rng.integers(2, ctx.order, size=2))
        nz = a[a != 0]
        outs = {"vadd": ctx.vadd(a, b), "vsub": ctx.vsub(a, b), "vneg": ctx.vneg(a),
                "vmul": ctx.vmul(a, b), f"vscale {c}": ctx.vscale(c, a), "vinv": ctx.vinv(nz),
                **{f"vfrob {k}": ctx.vfrob(a, k) for k in range(1, ctx.n)},
                f"vpow_int {m}": ctx.vpow_int(a, m),
                f"vpow_int {ctx.mult_order - 1}": ctx.vpow_int(a, ctx.mult_order - 1)}
        for label, out in outs.items():
            yield f"{label} on seeded arrays at {name}", _sha(out.tobytes())
    for name, pet in (("(5,3)", (5, 1, 3)), ("(3,2,3)", (3, 2, 3))):
        ctx = build_field(*pet)
        maps = {"0": LinPoly.zero(ctx), "2*id": LinPoly.monomial(ctx, 2, 0),
                "x + x^(q^t)": LinPoly.identity(ctx) + LinPoly.monomial(ctx, 1, ctx.t)}
        rng = np.random.default_rng(ctx.order + 6)
        for _ in range(2):
            coeffs = [0] * ctx.n
            for slot in rng.choice(ctx.n, size=2, replace=False):
                coeffs[int(slot)] = int(rng.integers(1, ctx.order))
            maps[f"sparse map {coeffs}"] = LinPoly(ctx, coeffs)
        for label, f in maps.items():
            yield (f"rank_distribution {label} at {name}",
                   _json_sha(codes.rank_distribution(codes.build_code(f)).to_json()))
    for k in (1, 2):
        argv = ["code-report", *_field_args((7, 1, 4)), "--k", str(k)]
        yield " ".join(argv), _cli(argv)


def _inverse(h):
    """h^-1 for an invertible q-polynomial h: the l with (l o h)_m =
    sum_i l_i * h_(m-i)^(q^i) = [m == 0], solved over the field."""
    ctx, n = h.ctx, h.ctx.n
    rows = [[ctx.frob(h.coeffs[(m - i) % n], i) for i in range(n)] + [int(m == 0)]
            for m in range(n)]
    return LinPoly(ctx, [row[n] for row in linalg.field_rref(ctx, rows)[0]])


def _fiber_lines(f, label):
    yield f"line_values {label}", _sha(f.line_values().tobytes())
    yield f"fiber_histogram {label}", _json_sha(sorted(f.fiber_histogram().items()))


def _json_sha(obj) -> str:
    return _sha(json.dumps(obj, sort_keys=True).encode())


def _idealiser_line(f, side, label, check_flags=True):
    rep = codes.idealiser(codes.build_code(f), side, check_flags=check_flags)
    return (f"idealiser {side} {label}",
            _sha(json.dumps(rep.to_json(), sort_keys=True).encode()))


def main():
    total = hashlib.sha1()
    for name, digest in _lines():
        line = f"{digest}  {name}"
        print(line, flush=True)
        total.update(line.encode() + b"\n")
    print(f"{total.hexdigest()}  all")


if __name__ == "__main__":
    main()
