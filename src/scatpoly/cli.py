"""Command line front end.

Subcommands: verify-scattered, code-report, equiv, geometry, acceptance.
All algorithms are deterministic, so identical configuration yields
byte-identical JSON; elapsed times go to stderr only. Every verdict is
exact: `equiv` answers by linear algebra over GF(p), with no search space
to cap. Exit codes: 0 when a command completes (whatever the mathematical
verdict), 2 for invalid configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from time import perf_counter

from .errors import ScatpolyError
from .fields import build_field
from . import acceptance, codes, geometry, linsets, scattered


def _field_block(ctx) -> dict:
    return {"p": ctx.p, "e": ctx.e, "t": ctx.t, "q": ctx.q, "n": ctx.n,
            "modulus": list(ctx.modulus)}


def _read_modulus(path):
    if path is None:
        return None
    with open(path) as fh:
        text = fh.read().replace(",", " ")
    coeffs = [int(tok) for tok in text.split()]
    if not coeffs:
        raise ValueError(f"modulus file {path!r} contains no coefficients")
    return coeffs


def _build_ctx(args):
    return build_field(args.p, args.e, args.t, modulus=_read_modulus(args.modulus_file))


def _emit(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_json(payload: dict, out):
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


def _require_json(args):
    if args.format != "json":
        raise ValueError("csv output is only available for rank distributions"
                         " (code-report)")


def parse_target(ctx, spec: str):
    """Target grammar: psi:K | u1:S | u2:S,DELTA | u3:S,DELTA | u4:DELTA
    | u5:H | pseudoregulus | lp-type."""
    s = spec.strip().lower()
    if s == "pseudoregulus":
        return "pseudoregulus", None
    if s in ("lp-type", "lp_type", "lptype"):
        return "lp-type", None
    name, _, rest = s.partition(":")
    parts = [tok for tok in rest.split(",") if tok] if rest else []
    try:
        if name == "psi" and len(parts) == 1:
            return "poly", scattered.build_psi(ctx, int(parts[0]))
        if name == "u1" and len(parts) == 1:
            return "poly", linsets.known_family(ctx, "u1", s=int(parts[0]))
        if name in ("u2", "u3") and len(parts) == 2:
            return "poly", linsets.known_family(ctx, name, s=int(parts[0]),
                                                delta=int(parts[1]))
        if name == "u4" and len(parts) == 1:
            return "poly", linsets.known_family(ctx, "u4", delta=int(parts[0]))
        if name == "u5" and len(parts) == 1:
            return "poly", linsets.known_family(ctx, "u5", h=int(parts[0]))
    except (TypeError, KeyError) as ex:
        raise ValueError(f"cannot parse target {spec!r}: {ex}") from ex
    raise ValueError(f"cannot parse target {spec!r}")


# -- subcommands ------------------------------------------------------------------

def cmd_verify_scattered(args) -> int:
    _require_json(args)
    ctx = _build_ctx(args)
    f = scattered.build_psi(ctx, args.k)
    pred = scattered.theorem_predicate(ctx, args.k)
    vf = scattered.is_scattered_fibers(f)
    vr = scattered.is_scattered_ranks(f)
    payload = {"schema": 1, "field": _field_block(ctx), "k": args.k,
               "predicate": pred, "fibers": vf.to_json(), "ranks": vr.to_json(),
               "agree": vf.scattered == pred and vr.scattered == pred}
    if not vf.scattered:
        w = scattered.nonscattered_witness_search(f)
        payload["scaling_witness"] = (None if w is None
                                      else {"rho": w[0], "x": w[1]})
    _emit_json(payload, args.out)
    return 0


def cmd_code_report(args) -> int:
    ctx = _build_ctx(args)
    code = codes.build_code(scattered.build_psi(ctx, args.k))
    dist = codes.rank_distribution(code)
    if args.format == "csv":
        rows = "".join(f"{r},{c}\n" for r, c in dist.csv_rows())
        _emit("rank,count\n" + rows, args.out)
        return 0
    d = codes.min_rank_distance(code)
    payload = {"schema": 1, "field": _field_block(ctx), "k": args.k,
               "parameters": {"rows": ctx.n, "cols": ctx.n, "q": ctx.q, "d": d},
               "size": code.size, "degenerate": code.degenerate,
               "mrd": codes.is_mrd(code),
               "rank_distribution": dist.to_json(),
               "idealisers": {side: codes.idealiser(code, side).to_json()
                              for side in ("left", "right")}}
    _emit_json(payload, args.out)
    return 0


def cmd_equiv(args) -> int:
    _require_json(args)
    ctx = _build_ctx(args)
    kind_l, f = parse_target(ctx, args.left)
    if kind_l != "poly":
        raise ValueError("--left must name a polynomial target")
    kind_r, g = parse_target(ctx, args.right)
    payload = {"schema": 1, "field": _field_block(ctx), "left": args.left,
               "right": args.right}
    if kind_r == "pseudoregulus":
        payload["family_member"] = linsets.pseudoregulus_test(f)
    elif kind_r == "lp-type":
        payload["family_member"] = linsets.lp_type_test(f)
    else:
        cert = linsets.subspace_equivalent(f, g)
        payload["certificate"] = None if cert is None else cert.to_json()
        payload["verified"] = bool(cert is not None and cert.verify(f, g))
    _emit_json(payload, args.out)
    return 0


def cmd_geometry(args) -> int:
    _require_json(args)
    ctx = _build_ctx(args)
    G = geometry.gamma_k(ctx, args.k)
    d1 = geometry.intersect(G, geometry.apply_sigma(G, 1)).projdim
    d2 = geometry.intersect(G, geometry.apply_sigma(G, 1),
                            geometry.apply_sigma(G, 2)).projdim
    want = scattered.build_psi(ctx, args.k).scale(2).line_values()
    got = geometry.project_to_line(G, args.k)
    payload = {"schema": 1, "field": _field_block(ctx), "k": args.k,
               "gamma": G.to_json(),
               "meets_orbit": geometry.meets_sigma_orbit(G) is not None,
               "self_intersection_dims": [d1, d2],
               "intn": {"1": geometry.intn(G, 1),
                        str(ctx.n - 1): geometry.intn(G, ctx.n - 1)},
               "projection_matches": bool(len(got) == len(want)
                                          and (got == want).all()),
               "pseudoregulus": geometry.pseudoregulus_geometric_test(G)}
    _emit_json(payload, args.out)
    return 0


def cmd_acceptance(args) -> int:
    lines = []

    def report(res):
        lines.append(res.line())
        if args.out is None and args.format != "json":
            print(res.line(), flush=True)

    results = acceptance.run_acceptance(only=args.only, report=report)
    passed = sum(1 for r in results if r.ok)
    summary = f"passed {passed}/{len(results)} criteria"
    if args.format == "json":
        _emit_json({"schema": 1, "criteria": [r.to_json() for r in results],
                    "passed": passed, "total": len(results)}, args.out)
    elif args.out is not None:
        _emit("".join(line + "\n" for line in lines) + summary + "\n", args.out)
    else:
        print(summary)
    return 0


# -- parser ------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--p", type=int, required=True,
                    help="characteristic (odd prime)")
    sp.add_argument("--e", type=int, default=1, help="q = p^e")
    sp.add_argument("--t", type=int, required=True,
                    help="half the tower degree, n = 2t")
    sp.add_argument("--modulus-file", default=None,
                    help="file of modulus coefficients (ascending, "
                         "whitespace or comma separated)")
    sp.add_argument("--out", default=None, help="write the report here")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parse_args keeps
    no state between calls, each call filling a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="scatpoly",
        description="Scattered q-polynomials, their linear sets, and the "
                    "rank-metric codes they span.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify-scattered",
                        help="run both scatteredness checkers and the "
                             "classification predicate")
    _add_common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(fn=cmd_verify_scattered)

    sp = sub.add_parser("code-report",
                        help="parameters, distance, rank distribution and "
                             "idealisers of the spanned code")
    _add_common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(fn=cmd_code_report)

    sp = sub.add_parser("equiv",
                        help="subspace equivalence certificate between two "
                             "targets, or family membership")
    _add_common(sp)
    sp.add_argument("--left", required=True,
                    help="psi:K | u1:S | u2:S,DELTA | u3:S,DELTA | u4:DELTA "
                         "| u5:H")
    sp.add_argument("--right", required=True,
                    help="same grammar, or pseudoregulus | lp-type")
    sp.set_defaults(fn=cmd_equiv)

    sp = sub.add_parser("geometry",
                        help="distinguished subspace, intersection numbers "
                             "and the projection reconstruction")
    _add_common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(fn=cmd_geometry)

    sp = sub.add_parser("acceptance", help="run the verification criteria")
    sp.add_argument("--only", default=None, choices=acceptance.SLUGS,
                    help="run a single criterion")
    sp.add_argument("--out", default=None, help="write the report here")
    sp.add_argument("--format", choices=("text", "json"), default="text",
                    help="status lines, or the structured report")
    sp.set_defaults(fn=cmd_acceptance)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = perf_counter()
    try:
        code = args.fn(args)
    except (ScatpolyError, ValueError, OSError) as ex:
        print(f"invalid config: {ex}", file=sys.stderr)
        return 2
    print(f"{args.command} finished in {perf_counter() - t0:.2f}s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
