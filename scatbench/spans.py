"""Tracing for the benchmark's traced run, from the benchmark's own files.

Tracer.install() wraps scatpoly's public functions in place: every module
attribute and class attribute that refers to one of them is replaced by a
wrapper, so calls between the library's own modules are traced too. Calls
at layer boundaries become spans (name, start, end, parent) kept in memory
and written out at the end; self time is a span's duration minus that of
its direct children. The field's scalar operations and v* kernels run
millions of times per round, so for them the tracer keeps only totals
(calls, seconds, elements) of the outermost call in each group.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

SCALAR_OPS = ("add", "neg", "sub", "mul", "inv", "div", "pow_", "frob", "frob_p")
VKERNELS = ("vadd", "vneg", "vsub", "vmul", "vscale", "vinv", "vfrob", "vpow_int")
GEOMETRY = ("gamma_k", "intersect", "apply_sigma", "meets_sigma_orbit", "intn",
            "project_to_line", "pseudoregulus_geometric_test")


class Tracer:

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, outermost in group]
        self.leaves = {}       # group -> [calls, seconds, elements]
        self._busy = {}        # group -> [a call of the group is running]
        self.counts = defaultdict(float)
        self._stack = []
        self._depth = defaultdict(int)
        self._undo = []

    # -- wrappers --------------------------------------------------------------

    def _span(self, fn, name, group=None, hook=None):
        tr = self
        group = group or name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, 0.0, 0.0, tr._stack[-1] if tr._stack else -1,
                   tr._depth[group] == 0]
            tr._stack.append(len(tr.spans))
            tr.spans.append(rec)
            tr._depth[group] += 1
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tr._depth[group] -= 1
                tr._stack.pop()
            if hook is not None:
                hook(rec, args, out)
            return out
        return wrapper

    def _leaf(self, fn, group, elems):
        stats = self.leaves.setdefault(group, [0, 0.0, 0])
        busy = self._busy.setdefault(group, [False])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if busy[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                stats[1] += perf_counter() - t0
                busy[0] = False
            stats[0] += 1
            if elems:
                stats[2] += out.size
            return out
        return wrapper

    def _replace(self, modules, orig, wrapper):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def _method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    # -- counters fed from span results ------------------------------------------

    def _on_batch_rank(self, rec, args, out):
        n = args[1].shape[1]
        self.counts[f"batch_rank.mats.n{n}"] += len(out)
        self.counts[f"batch_rank.s.n{n}"] += rec[2] - rec[1]

    def _on_dickson(self, rec, args, out):
        if self._depth["scattered.witness"]:
            self.counts["witness.rhos_ranked"] += len(out)
        if self._depth["codes.idealiser"]:
            self.counts["idealiser.flag_elems"] += len(out)

    def _on_shift_ranks(self, rec, args, out):
        if self._depth["scattered.ranks"]:
            self.counts["ranks.shifts_ranked"] += len(out)

    def _on_ranks(self, rec, args, out):
        m = out.bad_shift
        self.counts["ranks.shifts_needed"] += args[0].ctx.order if m is None else m + 1

    def _on_witness(self, rec, args, out):
        # rho runs over omega^j, j = 1 .. q^n - 2, skipping the multiples
        # of (q^n - 1)/(q - 1), which give GF(q)
        ctx = args[0].ctx
        step = (ctx.order - 1) // (ctx.q - 1)
        if out is None:
            need = ctx.order - ctx.q
        else:
            j = int(ctx._log[out[0]])
            need = j - j // step
        self.counts["witness.rhos_needed"] += need

    def _on_eval_vec(self, rec, args, out):
        if rec[4]:
            self.counts["eval_vec.elems"] += out.size

    # -- install / remove ------------------------------------------------------------

    def install(self):
        import sys
        from scatpoly import cli, codes, fields, geometry, linalg, linpoly, linsets, scattered
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "scatpoly" or name.startswith("scatpoly."))]
        FieldCtx, LinPoly = fields.FieldCtx, linpoly.LinPoly
        for op in SCALAR_OPS:
            self._method(FieldCtx, op, self._leaf(getattr(FieldCtx, op), "fields.scalar", False))
        for op in VKERNELS:
            self._method(FieldCtx, op, self._leaf(getattr(FieldCtx, op), "fields.vkernel", True))
        for attr, hook in (("eval_vec", self._on_eval_vec), ("compose", None),
                           ("line_values", None)):
            self._method(LinPoly, attr, self._span(getattr(LinPoly, attr), f"linpoly.{attr}",
                                                   hook=hook))
        self._method(linsets.Certificate, "verify",
                     self._span(linsets.Certificate.verify, "linsets.verify"))
        funcs = [
            (fields.build_field, "fields.build_field", None, None),
            (linalg.batch_rank, "linalg.batch_rank", None, self._on_batch_rank),
            (linalg.batch_dickson_rank, "linalg.batch_dickson_rank", None, self._on_dickson),
            (linalg.modp_rref, "linalg.modp_rref", None, None),
            (linalg.field_rref, "linalg.field_rref", None, None),
            (scattered.is_scattered_fibers, "scattered.fibers", None, None),
            (scattered.is_scattered_ranks, "scattered.ranks", None, self._on_ranks),
            (scattered.shift_ranks, "scattered.shift_ranks", None, self._on_shift_ranks),
            (scattered.nonscattered_witness_search, "scattered.witness", None, self._on_witness),
            (scattered.baer_partition_check, "scattered.baer", None, None),
            (codes.rank_distribution, "codes.rank_distribution", None, None),
            (codes.idealiser, _idealiser_name, "codes.idealiser", None),
            (linsets.subspace_equivalent, "linsets.equiv", None, None),
            (cli.main, "cli", None, None),
        ] + [(getattr(geometry, g), f"geometry.{g}", "geometry", None) for g in GEOMETRY]
        for fn, name, group, hook in funcs:
            self._replace(mods, fn, self._span(fn, name, group, hook))

    def remove(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ---------------------------------------------------------------------------

    def mark(self):
        """Snapshot, so that metrics can be taken over what follows."""
        return len(self.spans), dict(self.counts), {g: list(s) for g, s in self.leaves.items()}

    def metrics(self, since, rounds: int) -> dict:
        """Per-layer figures per round, over the spans and counts after since."""
        first, counts0, leaves0 = since
        spans = self.spans[first:]
        child = defaultdict(float)
        for name, t0, t1, parent, outer in spans:
            if parent >= first:
                child[parent] += t1 - t0
        total, calls, self_s = defaultdict(float), defaultdict(int), defaultdict(float)
        for i, (name, t0, t1, parent, outer) in enumerate(spans, start=first):
            if outer:
                total[name] += t1 - t0
                calls[name] += 1
            self_s[name] += t1 - t0 - child[i]
        geometry_s = sum(v for k, v in total.items() if k.startswith("geometry."))
        cnt = {k: v - counts0.get(k, 0) for k, v in self.counts.items()}
        leaf = {g: [a - b for a, b in zip(s, leaves0.get(g, [0, 0.0, 0]))]
                for g, s in self.leaves.items()}
        r = float(rounds)
        vk, sc = leaf["fields.vkernel"], leaf["fields.scalar"]
        mats = sum(v for k, v in cnt.items() if k.startswith("batch_rank.mats."))

        def rate(n):
            s = cnt.get(f"batch_rank.s.n{n}", 0.0)
            return cnt.get(f"batch_rank.mats.n{n}", 0) / s if s else 0.0

        return {
            "fields.vkernel.calls": (vk[0] / r, "count"),
            "fields.vkernel.elems": (vk[2] / r, "count"),
            "fields.vkernel.s": (vk[1] / r, "s"),
            "fields.vkernel.ns_per_elem": (vk[1] * 1e9 / vk[2] if vk[2] else 0.0, "ns"),
            "fields.scalar.calls": (sc[0] / r, "count"),
            "fields.scalar.s": (sc[1] / r, "s"),
            "linalg.batch_rank.mats": (mats / r, "count"),
            "linalg.batch_rank.s": (total["linalg.batch_rank"] / r, "s"),
            "linalg.batch_rank.mats_per_s.n6": (rate(6), "1/s"),
            "linalg.batch_rank.mats_per_s.n8": (rate(8), "1/s"),
            "linalg.batch_rank.mats_per_s.n10": (rate(10), "1/s"),
            "linalg.batch_dickson_rank.s": (self_s["linalg.batch_dickson_rank"] / r, "s"),
            "linalg.modp_rref.calls": (calls["linalg.modp_rref"] / r, "count"),
            "linalg.modp_rref.s": (total["linalg.modp_rref"] / r, "s"),
            "linalg.field_rref.calls": (calls["linalg.field_rref"] / r, "count"),
            "linalg.field_rref.s": (total["linalg.field_rref"] / r, "s"),
            "linpoly.eval_vec.calls": (calls["linpoly.eval_vec"] / r, "count"),
            "linpoly.eval_vec.elems": (cnt.get("eval_vec.elems", 0) / r, "count"),
            "linpoly.eval_vec.s": (total["linpoly.eval_vec"] / r, "s"),
            "linpoly.compose.calls": (calls["linpoly.compose"] / r, "count"),
            "linpoly.compose.s": (total["linpoly.compose"] / r, "s"),
            "linpoly.line_values.s": (total["linpoly.line_values"] / r, "s"),
            "scattered.fibers.s": (total["scattered.fibers"] / r, "s"),
            "scattered.ranks.s": (total["scattered.ranks"] / r, "s"),
            "scattered.ranks.shifts_ranked": (cnt.get("ranks.shifts_ranked", 0) / r, "count"),
            "scattered.ranks.shifts_needed": (cnt.get("ranks.shifts_needed", 0) / r, "count"),
            "scattered.witness.s": (total["scattered.witness"] / r, "s"),
            "scattered.witness.rhos_ranked": (cnt.get("witness.rhos_ranked", 0) / r, "count"),
            "scattered.witness.rhos_needed": (cnt.get("witness.rhos_needed", 0) / r, "count"),
            "scattered.baer.s": (total["scattered.baer"] / r, "s"),
            "codes.rank_distribution.s": (total["codes.rank_distribution"] / r, "s"),
            "codes.idealiser.left.s": (total["codes.idealiser.left"] / r, "s"),
            "codes.idealiser.right.s": (total["codes.idealiser.right"] / r, "s"),
            "codes.idealiser.flag_elems": (cnt.get("idealiser.flag_elems", 0) / r, "count"),
            "linsets.equiv.calls": (calls["linsets.equiv"] / r, "count"),
            "linsets.equiv.s": (total["linsets.equiv"] / r, "s"),
            "linsets.verify.calls": (calls["linsets.verify"] / r, "count"),
            "linsets.verify.s": (total["linsets.verify"] / r, "s"),
            "geometry.s": (geometry_s / r, "s"),
            "cli.self_s": (self_s["cli"] / r, "s"),
        }

    def dump(self, path):
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")


def _idealiser_name(args, kwargs):
    side = kwargs.get("side", args[1] if len(args) > 1 else "left")
    return f"codes.idealiser.{side}"
