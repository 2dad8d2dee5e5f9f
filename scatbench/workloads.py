"""The three workloads: their fields, their seeded inputs, and the calls
into scatpoly that make up one round, each with the check of its output.

A task is a few calls into the program and one check over their outputs.
Every round of a run makes the same calls on the same inputs, so the share
of failed calls is the same in every run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from ref import psi_coeffs

# (p, e, t) of every field a workload uses; set-up builds each of them cold
FIELDS = {
    "scatter": [(5, 1, 3), (3, 1, 4), (3, 1, 5), (5, 1, 4), (13, 1, 3)],
    "codes": [(5, 1, 3), (3, 1, 4), (3, 2, 3)],
    "equiv": [(3, 1, 3), (5, 1, 3), (3, 1, 4)],
}


@dataclass
class Task:
    calls: list            # [(label, zero-argument callable into scatpoly)]
    check: Callable        # outputs in call order -> list of failure messages
    out_files: tuple = ()  # files the calls write, counted as cli.out_bytes


def build_tasks(workload: str, seed: int, ctxs: dict, refs: dict, outdir: Path) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return {"scatter": _scatter, "codes": _codes, "equiv": _equiv}[workload](
        rng, ctxs, refs, outdir)


def _psi(ctx, k):
    """psi_k as the program builds it; the checks compare it with the formula."""
    from scatpoly import scattered
    return scattered.build_psi(ctx, k)


# -- scatter ----------------------------------------------------------------------

def _scatter(rng, ctxs, refs, outdir):
    from scatpoly import scattered
    tasks = []

    def verdicts(key, k, methods):
        F, f = refs[key], _psi(ctxs[key], k)
        calls = []
        for m in methods:
            if m == "fibers":
                fn = lambda: scattered.is_scattered_fibers(f).to_json()
            elif m == "ranks":
                fn = lambda: scattered.is_scattered_ranks(f).to_json()
            else:
                fn = lambda: scattered.nonscattered_witness_search(f)
            calls.append((f"{m} psi_{k} at {key}", fn))
        tasks.append(Task(calls, lambda outs: checks.check_scatter(
            F, k, f.coeffs, dict(zip(methods, outs)))))

    every = ("fibers", "ranks", "witness")
    for k in range(1, 6):
        verdicts((5, 1, 3), k, every)
    for k in range(1, 8):
        verdicts((3, 1, 4), k, every)
    # gcd(k, 10) = 1 but q = 3 mod 4: outside the theorem, not scattered;
    # 3^10 < 2^16, so each sweep is one chunk
    verdicts((3, 1, 5), rng.choice([1, 3, 7, 9]), every)
    # not scattered, sweep in chunks of 2^16 shifts with an early exit
    verdicts((5, 1, 4), rng.choice([2, 6]), every)
    # 13^6 = 4.8M elements: the tables dominate set-up time and memory
    verdicts((13, 1, 3), rng.choice([2, 4]), ("fibers",))
    key, kb = (13, 1, 3), rng.choice([1, 5])
    tasks.append(Task([(f"baer psi_{kb} at {key}",
                        lambda: scattered.baer_partition_check(ctxs[key], kb).to_json())],
                      lambda outs: checks.check_baer(refs[key], outs[0])
                      + ([] if outs[0]["k"] == kb else [f"Baer report for k={outs[0]['k']}"])))
    return tasks


# -- codes ----------------------------------------------------------------------------

def _codes(rng, ctxs, refs, outdir):
    from scatpoly import cli, codes
    tasks = []

    def cli_task(argv, path, check):
        def call():
            path.unlink(missing_ok=True)
            return cli.main(argv + ["--out", str(path)])

        def verify(outs):
            if outs[0] != 0:
                return [f"scatpoly {' '.join(argv)} exited {outs[0]}"]
            return check(json.loads(path.read_text()))
        tasks.append(Task([(" ".join(argv), call)], verify, (path,)))

    for p, t in ((5, 3), (3, 4)):
        for k in (1, 2):
            F = refs[(p, 1, t)]
            cli_task(["code-report", "--p", str(p), "--t", str(t), "--k", str(k)],
                     outdir / f"code-report-{p}-{t}-{k}.json",
                     lambda rep, F=F, k=k: checks.check_code_report(F, k, rep))
    kg = rng.choice([1, 3, 5, 7])
    cli_task(["geometry", "--p", "3", "--t", "4", "--k", str(kg)],
             outdir / "geometry-3-4.json",
             lambda rep: checks.check_geometry(refs[(3, 1, 4)], kg, rep))
    # q = 9: the only e > 1 tower. The exact GF(p) solves for both sides;
    # the left side skips its flags, which enumerate 3^12 elements
    key = (3, 2, 3)
    F = refs[key]
    for k in (1, 2):
        code = codes.build_code(_psi(ctxs[key], k))
        for side, flags in (("left", False), ("right", True)):
            tasks.append(Task(
                [(f"idealiser {side} psi_{k} at {key}",
                  lambda code=code, side=side, flags=flags:
                  codes.idealiser(code, side, check_flags=flags).to_json())],
                lambda outs, k=k, side=side: checks.check_idealiser(
                    F, psi_coeffs(F, k), outs[0], side, checks.paper_scattered(F.q, F.t, k))))
    return tasks


# -- equiv ------------------------------------------------------------------------------

def _nonzero(rng, F):
    return rng.randrange(1, F.order)


def _equiv(rng, ctxs, refs, outdir):
    from scatpoly import linsets
    from scatpoly.linpoly import LinPoly
    tasks = []

    def pair(key, f, g, expect, label):
        F, ctx = refs[key], ctxs[key]
        lf, lg = LinPoly(ctx, f), LinPoly(ctx, g)

        def call():
            cert = linsets.subspace_equivalent(lf, lg)
            return None if cert is None else cert.to_json()
        tasks.append(Task([(f"{label} at {key}", call)],
                          lambda outs: checks.check_equiv(F, f, g, outs[0], expect)))

    # g = mu * f^tau(lambda * x) is equivalent to f through diag(1/lambda, mu)
    for key in FIELDS["equiv"]:
        F = refs[key]
        for _ in range(6):
            f = [0] * F.n
            for s in rng.sample(range(1, F.n), 2):
                f[s] = _nonzero(rng, F)
            tau, lam, mu = rng.randrange(F.N), _nonzero(rng, F), _nonzero(rng, F)
            g = [F.mul(mu, F.mul(F.frob_p(c, tau), F.frob(lam, i))) for i, c in enumerate(f)]
            pair(key, f, g, "equivalent", "built pair")

    key = (3, 1, 4)
    F = refs[key]
    psi1 = psi_coeffs(F, 1)
    # psi_3(b * psi_1(x)) = b^q * x for b^(q^2) = -b; psi_7 is psi_1's inverse
    pair(key, psi1, psi_coeffs(F, 3), "equivalent", "psi_1 ~ psi_3")
    pair(key, psi1, psi_coeffs(F, 7), "equivalent", "psi_1 ~ psi_7")
    # psi_1 at n = 8 is new: no u2(s, delta) = delta x^(q^s) + x^(q^(n-s))
    # is equivalent to it
    for _ in range(100):
        s = rng.choice([1, 3, 5, 7])
        delta = _nonzero(rng, F)
        while F.norm_q(delta) == 1:
            delta = _nonzero(rng, F)
        g = [0] * F.n
        g[s], g[F.n - s] = delta, 1
        pair(key, psi1, g, "theorem", f"psi_1 ~ u2({s}, {delta})")

    # full support pairs whose fiber-size histograms differ: the search
    # runs to the end and must return None
    key = (3, 1, 3)
    F = refs[key]
    for _ in range(2):
        while True:
            f = [_nonzero(rng, F) for _ in range(F.n)]
            g = [_nonzero(rng, F) for _ in range(F.n)]
            if F.fiber_sizes(F.qpoly(f)) != F.fiber_sizes(F.qpoly(g)):
                break
        pair(key, f, g, "invariant", "full-support pair")
    return tasks
