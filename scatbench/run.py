"""Benchmark for scatpoly: python3 scatbench/run.py --workload NAME --seed N
--seconds S --trace 0|1, from the root of a checkout.

One process, workers=1. It imports scatpoly from the checkout's src/,
builds the workload's fields cold (set-up), makes the seeded inputs, then
repeats rounds of the same calls into scatpoly until the calls have taken
S seconds, checking every output after its round. The last line of stdout
is one JSON object: correct, attempted, failed and the metrics, end-to-end
ones with --trace 0 and per-layer ones with --trace 1.
"""

import argparse
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# The machine's speed drifts by 10-40% over seconds to minutes, most of all
# for interpreter-bound work such as imports and field construction. So
# `import scatpoly` is timed in fresh interpreters at both ends of the run
# and once per IMPORT_EVERY seconds of the rounds, the fields are built cold
# at both ends and once per SETUP_EVERY seconds of the rounds (all between
# calls, outside their timing), and the medians are reported. A call that
# outlasts several periods is followed by the samples it held up, so a
# workload of a few long calls takes as many samples as one of many short.
IMPORT_EVERY = 3.0
IMPORT_MAX = 6          # fresh interpreters between calls, at most
SETUP_EVERY = 5.0
SETUP_MAX = 6           # set-ups between calls, at most
SETUP_SECONDS = 0.5     # set-up repeats at each end until this long
# A set-up between calls holds a second copy of the tables while the first
# is in use, so it is left out when a field is larger than this.
SETUP_BETWEEN_MAX_ORDER = 1 << 20


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("scatter", "codes", "equiv"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    if not (SRC / "scatpoly" / "__init__.py").is_file():
        print(f"scatpoly sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import scatpoly  # noqa: F401  (timed: the first import in this interpreter)
    import_times = [perf_counter() - t0]

    import gc
    import json
    import os
    import resource
    import statistics
    import subprocess

    from scatpoly import fields
    import workloads
    from ref import RefField

    env = dict(os.environ, PYTHONPATH=str(SRC))

    def fresh(code, *flags):
        """Run code in a fresh interpreter and wait for it."""
        return subprocess.run([sys.executable, *flags, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)

    # os._exit skips the interpreter's teardown, which is not timed
    timer = "import os, time; t = time.perf_counter(); import scatpoly; " \
            "print(time.perf_counter() - t, flush=True); os._exit(0)"

    def sample_import():
        import_times.append(float(fresh(timer).stdout))

    keys = workloads.FIELDS[args.workload]
    setup_between = all(p ** (2 * e * t) <= SETUP_BETWEEN_MAX_ORDER for p, e, t in keys)
    setup_times = []

    def setup():
        """Build every field of the workload cold; the contexts in use
        before stay the ones in use after."""
        saved = dict(fields._CTX_CACHE)
        fields._CTX_CACHE.clear()
        gc.collect()
        t0 = perf_counter()
        for p, e, t in keys:
            fields.build_field(p, e, t)
        setup_times.append(perf_counter() - t0)
        if saved:
            fields._CTX_CACHE.clear()
            fields._CTX_CACHE.update(saved)

    def end_samples():
        sample_import()
        t0 = perf_counter()
        while perf_counter() - t0 < SETUP_SECONDS:
            setup()

    # [seconds apart, most samples, sampler, samples taken]
    between = [[IMPORT_EVERY, IMPORT_MAX, sample_import, 0]]
    if setup_between:
        between.append([SETUP_EVERY, SETUP_MAX, setup, 0])
    rounds_start = [0.0]

    def sample_between():
        for row in between:
            every, most, sample, taken = row
            due = min(most, int((perf_counter() - rounds_start[0]) / every))
            for _ in range(taken, due):
                sample()
            row[3] = max(taken, due)

    tracer = None
    if args.trace:
        import spans
        sympy_s = statistics.median(
            [_sympy_import_s(fresh("import scatpoly", "-X", "importtime").stderr)
             for _ in range(2)])
        tracer = spans.Tracer()
        tracer.install()
    end_samples()
    ctxs = {key: fields.build_field(*key) for key in keys}

    refs = {key: RefField(*key, ctxs[key].modulus) for key in keys}
    OUT.mkdir(exist_ok=True)
    outdir = OUT / f"{args.workload}-{args.seed}-{args.trace}"
    outdir.mkdir(exist_ok=True)
    tasks = workloads.build_tasks(args.workload, args.seed, ctxs, refs, outdir)

    if tracer:
        solve_mark = tracer.mark()
    attempted = failed = 0
    errors = []
    round_times = []
    out_bytes = 0
    rounds_start[0] = perf_counter()
    while not round_times or sum(round_times) < args.seconds:
        results = []
        spent = 0.0
        for task in tasks:
            outs = []
            for label, call in task.calls:
                sample_between()
                t0 = perf_counter()
                try:
                    outs.append(call())
                except Exception as ex:  # a failed operation is counted, not fatal
                    outs.append(ex)
                    print(f"failed: {label}: {type(ex).__name__}: {ex}", file=sys.stderr)
                spent += perf_counter() - t0
            results.append(outs)
        round_times.append(spent)
        for task, outs in zip(tasks, results):
            attempted += len(outs)
            bad = sum(isinstance(o, Exception) for o in outs)
            failed += bad
            out_bytes += sum(f.stat().st_size for f in task.out_files if f.exists())
            if not bad:
                try:
                    errors += task.check(outs)
                except Exception as ex:  # a check that cannot read the output rejects it
                    errors.append(f"{task.calls[0][0]}: check raised {type(ex).__name__}: {ex}")
    rounds = len(round_times)
    if tracer:
        metrics = tracer.metrics(solve_mark, rounds)
    for msg in errors[:20]:
        print(f"incorrect: {msg}", file=sys.stderr)

    # the peak of the workload itself: the set-ups below are the benchmark's
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # drop every reference to the contexts, so the last set-ups build them
    # cold without a second copy of the tables in memory
    del tasks, ctxs, results, outs
    fields._CTX_CACHE.clear()
    end_samples()
    if tracer:
        tracer.remove()
        metrics["fields.build_field.s"] = (statistics.median(setup_times), "s")
        tables = sum(getattr(c, a).nbytes for c in fields._CTX_CACHE.values()
                     for a in ("_exp", "_log", "_zech", "_frob_q") if c.has_tables)
        metrics["fields.table_mb"] = (tables / 2 ** 20, "MB")
        metrics["cli.out_bytes"] = (out_bytes / rounds, "bytes")
        metrics["import.scatpoly_s"] = (statistics.median(import_times), "s")
        metrics["import.sympy_s"] = (sympy_s, "s")
        metrics["trace.solve_s"] = (statistics.median(round_times), "s")
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        # set-up is what a session pays before its first call: the import
        # and the cold build of every field
        setup_s = statistics.median(import_times) + statistics.median(setup_times)
        metrics = {"setup_s": (setup_s, "s"),
                   "solve_s": (statistics.median(round_times), "s"),
                   "peak_rss_mb": (peak, "MB")}
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(line + "\n")
    print(f"{rounds} rounds, round times {[round(t, 3) for t in round_times]}, "
          f"import times {[round(t, 3) for t in import_times]}, "
          f"set-up times {[round(t, 3) for t in setup_times]}", file=sys.stderr)
    print(line)
    return 0


def _sympy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the top-level sympy package, from the
    `-X importtime` lines `import time: self | cumulative | name`."""
    for row in importtime_log.splitlines():
        parts = row.split("|")
        if len(parts) == 3 and parts[2].strip() == "sympy":
            return int(parts[1]) / 1e6
    raise RuntimeError("sympy missing from the import-time log")


if __name__ == "__main__":
    sys.exit(main())
