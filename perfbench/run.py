#!/usr/bin/env python3
"""ordtensor benchmark: one workload, one fresh single-threaded process.

    python3 perfbench/run.py --workload lp_mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``
of that checkout.  The process makes the workload's inputs from the
seed, then runs passes over its fixed work list (one client, closed
loop) until ``--seconds`` have gone and the workload's minimum pass
count is reached.  Library caches are cleared before every pass, so
each pass starts as cold as a CLI run.  Every result is checked;
failures are counted, never fatal.

End-to-end times are put on a reference machine speed by the host
meter (``hostmeter.py``), which samples the machine's speed all through
the run; the raw pass times are in the detail line beside the factors.

With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run, which alternates
untraced and traced passes and reports the difference as the tracing
overhead.  The line before it holds the sample counts, the result
shares and the environment.  Metric names, units and directions are in
``perfbench/README.md``.
"""

import os
import sys
import time

T_START = time.perf_counter()
# one process, one thread: no BLAS or OpenMP worker pools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from hostmeter import HostMeter, PythonProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5  # input generations per run; setup_s takes their median


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import ordtensor.harness  # noqa: F401  (imports every layer)
    except ImportError as e:
        sys.exit(f"perfbench: cannot import ordtensor from {ROOT / 'src'}: {e}")
    import ordtensor

    if Path(ordtensor.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        sys.exit(f"perfbench: ordtensor was imported from {ordtensor.__file__}, not {ROOT / 'src'}")


def library_caches() -> dict:
    """Every lru_cache defined in the package, by qualified name."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] != "ordtensor":
            continue
        for name, obj in vars(mod).items():
            if callable(getattr(obj, "cache_clear", None)) and getattr(obj, "__module__", None) == key:
                out[f"{key}.{name}"] = obj
    return out


CACHE_METRICS = {
    "schreier.member_cache.hit_ratio": "ordtensor.schreier._member",
    "weights.p_cache.hit_ratio": "ordtensor.weights._p",
    "weights.q_cache.hit_ratio": "ordtensor.weights._q",
}


def _rusage_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_pass(workload, items, tracer=None, meter=None) -> dict:
    """One pass over the work list; times only the library calls.

    Item times leave out the meter's probes that land in them; ``factor``
    is the meter's factor over the pass (1 without a meter).
    """
    from workloads import fail

    caches = library_caches()
    for c in caches.values():
        c.cache_clear()
    ctx: dict = {}
    lat: list[float] = []
    cpu = 0.0
    totals = dict(attempted=0, failed=0, skipped=0, exact=0, passed=0)
    notes: list[str] = []
    if tracer is not None:
        tracer.install()
        mark = tracer.snapshot()
    perf = time.perf_counter
    probes = meter.mark() if meter is not None else 0
    spent = (lambda: meter.spent) if meter is not None else (lambda: 0.0)
    try:
        for idx, item in enumerate(items):
            args = workload.prepare(item, ctx)
            if args is None:
                continue
            if tracer is not None:
                tracer.item_id = idx
            s0 = spent()
            c0 = _rusage_cpu()
            t0 = perf()
            try:
                result, error = workload.call(item, args), None
            except Exception as e:  # counted as a failed result, never fatal
                result, error = None, e
            t1 = perf()
            c1 = _rusage_cpu()
            probe_s = spent() - s0
            cpu += c1 - c0 - probe_s
            lat.append(t1 - t0 - probe_s)
            with tracer.check(item.kind) if tracer is not None else nullcontext():
                try:
                    out = workload.check(item, args, result, error, ctx)
                except Exception as e:
                    out = fail(f"check of {item.kind} raised {e!r}")
            for k in totals:
                totals[k] += getattr(out, k)
            if out.failed:
                notes.extend(out.notes)
    finally:
        if tracer is not None:
            tracer.uninstall()
    factor = meter.factor(probes) if meter is not None else 1.0
    rec = dict(wall=sum(lat), cpu=cpu, lat=lat, factor=factor, totals=totals, notes=notes)
    rec["cache_hit_ratio"] = {}
    for metric, qual in CACHE_METRICS.items():
        info = caches[qual].cache_info() if qual in caches else None
        calls = info.hits + info.misses if info else 0
        rec["cache_hit_ratio"][metric] = info.hits / calls if calls else 0.0
    if tracer is not None:
        rec["trace"] = tracer.summary(mark)
    return rec


def percentile(values, pct):
    """Nearest-rank percentile; ``pct=None`` gives the maximum."""
    s = sorted(values)
    if pct is None:
        return s[-1]
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


def compare_probe(reps: int = 7, pairs: int = 4000) -> float:
    """Median ns per ``ordinal.compare`` call over fixed seeded pairs."""
    import functools
    import random

    from ordtensor import ordinal

    rng = random.Random(1729)

    def rand_ord(depth):
        if depth == 0:
            return ordinal.Ordinal.from_int(rng.randint(0, 3))
        exps = {rand_ord(depth - 1) for _ in range(rng.randint(0, 3))}
        exps = sorted(exps, key=functools.cmp_to_key(ordinal.compare), reverse=True)
        return ordinal.Ordinal(tuple((e, rng.randint(1, 4)) for e in exps))

    data = [(rand_ord(2), rand_ord(2)) for _ in range(pairs)]
    cmp = ordinal.compare
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for a, b in data:
            cmp(a, b)
        times.append((time.perf_counter() - t0) / pairs * 1e9)
    return statistics.median(times)


def environment(caches: dict) -> dict:
    import numpy
    import scipy

    threads = None
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads": threads,
        "cache_info_at_exit": {
            q: caches[q].cache_info()._asdict() if q in caches else None for q in CACHE_METRICS.values()
        },
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, untraced, setup_s) -> tuple[dict, dict]:
    """Every pass counts; its times are put on the reference speed."""
    lat = [x * p["factor"] for p in untraced for x in p["lat"]]
    tail = percentile(lat, workload.tail_pct)
    beyond = sum(1 for x in lat if x > tail)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(statistics.median(p["wall"] * p["factor"] for p in untraced), "s"),
        "cpu_s": _metric(statistics.median(p["cpu"] * p["factor"] for p in untraced), "s"),
        "item_p50_s": _metric(statistics.median(lat), "s"),
        "item_tail_s": _metric(tail, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {
        "passes": len(untraced),
        "items": len(lat),
        "tail_percentile": workload.tail_pct or "max",
        "items_beyond_tail": beyond,
    }
    return metrics, samples


def per_layer(untraced, traced) -> dict:
    from tracer import SPAN_TARGETS

    first = traced[0]["trace"]  # counts repeat exactly in every pass
    med = lambda f: statistics.median(f(p) for p in traced)  # noqa: E731
    m = {}
    m["ordinal.compare.calls"] = _metric(first["counts"]["ordinal.compare.calls"], "count")
    m["ordinal.add.calls"] = _metric(first["counts"]["ordinal.add.calls"], "count")
    m["ordinal.compare.ns"] = _metric(compare_probe(), "ns")
    for layer, name, _, _ in SPAN_TARGETS:
        full = f"{layer}.{name}"
        if full == "tensor.linprog":
            continue
        if layer != "harness":
            m[f"{full}.calls"] = _metric(first["calls"].get(full, 0), "count")
        m[f"{full}.self_s"] = _metric(med(lambda p: p["trace"]["self_s"].get(full, 0.0)), "s")
    for key in ("schreier.elements_materialized", "schreier.budget_skips"):
        m[key] = _metric(first["events"][key], "count")
    for metric in CACHE_METRICS:
        m[metric] = _metric(traced[0]["cache_hit_ratio"][metric], "ratio")
    lp_calls = first["calls"].get("tensor.linprog", 0)
    solves = first["calls"].get("tensor.pi_solve", 0)
    m["tensor.linprog.calls"] = _metric(lp_calls, "count")
    m["tensor.linprog.self_s"] = _metric(med(lambda p: p["trace"]["self_s"].get("tensor.linprog", 0.0)), "s")
    m["tensor.linprog.nit"] = _metric(first["events"]["tensor.linprog.nit"], "count")
    m["tensor.linprog_per_solve"] = _metric(lp_calls / solves if solves else 0.0, "calls/solve")
    for layer in ("schreier", "weights", "trees", "space", "tensor", "harness"):
        m[f"{layer}.self_s"] = _metric(med(lambda p: p["trace"]["layer_self_s"].get(layer, 0.0)), "s")
    traced_wall = med(lambda p: p["wall"])
    untraced_wall = statistics.median(p["wall"] for p in untraced)
    m["trace.wall_s"] = _metric(traced_wall, "s")
    m["trace.untraced_wall_s"] = _metric(untraced_wall, "s")
    m["trace.overhead_s"] = _metric(traced_wall - untraced_wall, "s")
    # harness.main's own self time is outside every layer total: it is
    # the part of verify_all no named harness or layer function covers
    m["trace.self_sum_share"] = _metric(
        med(lambda p: sum(p["trace"]["layer_self_s"].values()) / p["wall"] if p["wall"] else 0.0), "ratio"
    )
    return m


def main(argv=None) -> int:
    meter = HostMeter(PythonProbe())
    meter.start()  # before the library's imports, which setup_s times
    try:
        return _main(meter, argv)
    finally:
        meter.stop()


def _main(meter, argv) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.trace:
        meter.stop()  # per-layer times are raw, and no probe lands in a span

    _import_library()
    import_s = time.perf_counter() - T_START - meter.spent
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    generate_s = []
    for _ in range(SETUP_REPEATS):
        s0 = meter.spent
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, scratch)
        items = workload.items()
        generate_s.append(time.perf_counter() - t0 - (meter.spent - s0))
    # imports happen once per process; input generation is repeated
    setup_factor = 1.0 if args.trace else meter.factor(0)
    setup = (import_s + statistics.median(generate_s)) * setup_factor
    if not args.trace:
        meter.start(workload.probe())

    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    untraced, traced = [], []
    t_run = time.perf_counter()
    durations = []
    while True:
        use_trace = tracer is not None and len(untraced) > len(traced)
        t0 = time.perf_counter()
        rec = run_pass(workload, items, tracer if use_trace else None, meter if tracer is None else None)
        durations.append(time.perf_counter() - t0)
        (traced if use_trace else untraced).append(rec)
        enough = len(untraced) >= workload.min_passes and (tracer is None or len(traced) >= len(untraced))
        # stop before a pass that would likely end past the deadline
        if enough and time.perf_counter() - t_run + statistics.median(durations) > args.seconds:
            break

    meter.stop()
    caches = library_caches()
    passes = untraced + traced
    totals = {k: sum(p["totals"][k] for p in passes) for k in passes[0]["totals"]}
    notes = [n for p in passes for n in p["notes"]]
    e2e, samples = end_to_end(workload, untraced, setup)
    shares = {
        "failed_share": totals["failed"] / max(totals["attempted"], 1),
        "skipped_share": totals["skipped"] / max(totals["attempted"], 1),
        "exact_share": totals["exact"] / max(totals["passed"], 1),
    }
    if tracer is not None:
        metrics = per_layer(untraced, traced)
        tracer.write(scratch / f"spans-{args.workload}.npz")
    else:
        metrics = e2e
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": samples,
        "setup_parts_s": {"import": import_s, "generate": generate_s},
        "pass_wall_s": [p["wall"] for p in untraced],
        "host_factor": {"setup": setup_factor, "passes": [p["factor"] for p in untraced]},
        "probes": len(meter.durations),
        "results": totals,
        "shares": shares,
        "end_to_end": {k: v["value"] for k, v in e2e.items()} if tracer is not None else None,
        "env": environment(caches),
        "failures": notes[:10],
    }
    print(json.dumps(detail, default=str))
    print(
        json.dumps(
            {
                "correct": totals["failed"] == 0,
                "attempted": totals["attempted"],
                "failed": totals["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
