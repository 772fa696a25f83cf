"""weylkit benchmark runner.

    python3 perfbench/run.py --workload pbw-expand --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop (one client, no threads) over whole
seeded rounds for at least ``--seconds``, checks every output against an
oracle after the timed region, prints each metric by name with its unit,
and ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics with every time taken at a
reference machine speed (see ``speed.py``), so that a shared host's changes
of speed cancel; the unscaled values are printed too.  ``--trace 1``
alternates an untraced and a traced pass over the first round until
``--seconds`` are spent and reports the per-layer metrics; the spans of the
first traced pass go to ``perfbench/out/``.
"""

import time

_PROCESS_START_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

ROUNDS = 16  # generated in set-up; the timed loop cycles through them
SETUP_SAMPLES = 5  # this process plus four set-up-only child processes
TRACE_ROUNDS = 1

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "requests/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run; README.md maps each to the
# end-to-end metric and workload it should move.
PER_LAYER = {
    "cli.cli_main.self_ms": "ms",
    "cli.build_parser.self_ms": "ms",
    "expressions.parse.self_ms": "ms",
    "expressions.parse.free_terms": "count",
    "expressions.render.self_ms": "ms",
    "pbw.normal_form.self_ms": "ms",
    "pbw.normal_form.in_words": "count",
    "pbw.normal_form.out_terms": "count",
    "pbw.multiply.self_ms": "ms",
    "pbw.multiply.calls": "count",
    "pbw.multiply.term_pairs": "count",
    "pbw.centralizer_in_degree.self_ms": "ms",
    "pbw.basis_of_degree.self_ms": "ms",
    "linalg.rref.self_ms": "ms",
    "linalg.rref.calls": "count",
    "linalg.rref.cells": "count",
    "linalg.nullspace.self_ms": "ms",
    "linalg.rank.calls": "count",
    "linalg.span_equal.self_ms": "ms",
    "linalg.solve.self_ms": "ms",
    "linalg.det.self_ms": "ms",
    "quadratic.orthogonal_complement.self_ms": "ms",
    "quadratic.dual_presentation.self_ms": "ms",
    "shriek.multiply.self_ms": "ms",
    "shriek.multiply.calls": "count",
    "shriek.multiply.term_pairs": "count",
    "shriek.word_pairs.total": "count",
    "shriek.word_pairs.distinct": "count",
    "shriek.word_pairs.repeat_ratio": "ratio",
    "shriek.apply_automorphism.self_ms": "ms",
    "shriek.bilinear_form.calls": "count",
    "shriek.gram_matrix.self_ms": "ms",
    "shriek.nakayama.self_ms": "ms",
    "shriek.reduce_expression.self_ms": "ms",
    "localization.make.self_ms": "ms",
    "localization.loc_multiply.self_ms": "ms",
    "localization.homogenize.self_ms": "ms",
    "localization.theta.self_ms": "ms",
    "localization.mu.self_ms": "ms",
    "verify.run_suite.self_ms": "ms",
    "verify.compute_golden.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _import_weylkit():
    """Import weylkit from the checkout's src/, never from elsewhere."""
    if not (SRC / "weylkit" / "__init__.py").is_file():
        sys.exit(f"error: no weylkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import weylkit

    if Path(weylkit.__file__).resolve().parent != SRC / "weylkit":
        sys.exit(f"error: imported weylkit from {weylkit.__file__}, not from {SRC}")
    return weylkit


def _set_up(workload: str, seed: int):
    """Import, generate the seeded rounds and warm caches.

    Returns the set-up time too, as (reference-speed s, wall s).
    """
    speedometer = speed.Speedometer()
    with speedometer.running():
        weylkit = _import_weylkit()
        import workloads

        wl = workloads.WORKLOADS[workload]
        rounds = wl.make_rounds(seed, ROUNDS)
        wl.warm_up()
        ready = time.perf_counter_ns()
    wall, ref = speedometer.split(_PROCESS_START_NS, ready)
    return weylkit, rounds, (ref / 1e9, wall / 1e9)


def _child_set_up(workload: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line["setup_s"], line["raw_setup_s"]


def _execute(req):
    """Run one request; returns (raw result, error text or None)."""
    try:
        return req.run(), None
    except Exception as exc:  # a raising request is a failed request
        return None, f"raised {exc!r}"


def _check(req, raw, error) -> str | None:
    if error is not None:
        return error
    try:
        return req.check(raw)
    except Exception as exc:  # a crashing oracle counts as a mismatch
        return f"oracle raised {exc!r}"


def _check_all(records) -> list[tuple[str, str]]:
    """Oracle-check every record; a repeat of a verified (input, output) pair passes."""
    import workloads

    verified: dict[str, str] = {}
    failures = []
    for req, raw, error in records:
        out = workloads.canonical(raw) if error is None else None
        if out is not None and verified.get(req.key) == out:
            continue
        msg = _check(req, raw, error)
        if msg:
            failures.append((req.key, msg))
        elif out is not None:
            verified[req.key] = out
    return failures


def _provenance(weylkit, args, rounds) -> dict:
    digest = hashlib.sha256("\n".join(r.key for rnd in rounds for r in rnd).encode()).hexdigest()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "weylkit_file": weylkit.__file__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "request_sha256": digest,
        "round_shape": dict(sorted(Counter(r.cls for r in rounds[0]).items())),
    }


def _end_to_end(args, rounds, setup) -> tuple[dict, int, int, dict]:
    setups = [setup] + [_child_set_up(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    clock = time.perf_counter_ns
    records = []
    timed = []  # per request: (round, start ns, end ns)
    rounds_done = 0
    deadline = args.seconds * 1_000_000_000
    speedometer = speed.Speedometer()
    gc.collect()
    with speedometer.running():
        start = clock()
        while not rounds_done or clock() - start < deadline:
            for req in rounds[rounds_done % len(rounds)]:
                t0 = clock()
                raw, error = _execute(req)
                timed.append((rounds_done, t0, clock()))
                records.append((req, raw, error))
            rounds_done += 1
            if rounds_done == 1:
                # the results of later rounds are kept for the oracles too, and
                # how many rounds fit depends on the machine's speed
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = _check_all(records)
    wall_ms, ref_ms = zip(*((w / 1e6, r / 1e6) for w, r in
                            (speedometer.split(t0, t1) for _, t0, t1 in timed)))
    metrics = {}
    unscaled = {}
    for out, lat, setup_i in ((metrics, ref_ms, 0), (unscaled, wall_ms, 1)):
        out["setup_s"] = statistics.median(s[setup_i] for s in setups)
        out["throughput_rps"] = len(lat) / (sum(lat) / 1e3)
        out["latency_p50_ms"] = statistics.median(lat)
        out["latency_p90_ms"] = statistics.quantiles(lat, n=10)[8]
        out["peak_rss_mb"] = peak_rss_mb
    extra = {
        "rounds": rounds_done,
        "samples": len(timed),
        "calibration_chunks": len(speedometer.starts),
        "median_slowness": speedometer.median_slowness(),
        "unscaled": unscaled,
        "setup_samples_s": [s[0] for s in setups],
        "failures": failures[:20],
        # per request: round, wall ms and reference-speed ms
        "latencies_ms": [[r, w, f] for (r, _, _), w, f in zip(timed, wall_ms, ref_ms)],
    }
    return metrics, len(records), len(failures), extra


def _traced(args, rounds) -> tuple[dict, int, int, dict]:
    import spans
    import workloads

    trace_list = [req for rnd in rounds[:TRACE_ROUNDS] for req in rnd]
    clock = time.perf_counter_ns
    untraced_ns, traced_ns, summaries = [], [], []
    reference = None
    first_tracer = None
    failures: list[tuple[str, str]] = []
    attempted = 0
    deadline = args.seconds * 1_000_000_000
    start = clock()
    while not summaries or clock() - start < deadline:
        for traced in (False, True):
            tracer = spans.Tracer()
            gc.collect()
            if traced:
                tracer.install()
            t0 = clock()
            results = []
            for i, req in enumerate(trace_list):
                tracer.request_id = i
                results.append(_execute(req))
            (traced_ns if traced else untraced_ns).append(clock() - t0)
            tracer.uninstall()
            attempted += len(trace_list)
            outputs = [workloads.canonical(raw) if err is None else err for raw, err in results]
            if reference is None:
                reference = outputs
                failures += [(req.key, msg) for req, (raw, err) in zip(trace_list, results)
                             if (msg := _check(req, raw, err))]
            else:
                failures += [(req.key, "traced output differs" if traced else "output differs between passes")
                             for req, a, b in zip(trace_list, reference, outputs) if a != b]
            if traced:
                summaries.append(tracer.summary())
                first_tracer = first_tracer or tracer

    metrics = {}
    for name in PER_LAYER:
        values = [s.get(name, 0) for s in summaries]
        if name == "trace.overhead_ratio":
            metrics[name] = statistics.median(untraced_ns) / statistics.median(traced_ns)
        elif name.endswith(".self_ms"):
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                failures.append((name, f"counter differs between passes: {values}"))
            metrics[name] = values[0]
    span_file = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
    first_tracer.write_spans(span_file)
    extra = {
        "passes": len(summaries), "trace_requests": len(trace_list),
        "spans": len(first_tracer.spans), "span_file": str(span_file.relative_to(ROOT)),
        "untraced_pass_s": [ns / 1e9 for ns in untraced_ns],
        "traced_pass_s": [ns / 1e9 for ns in traced_ns],
        "failures": failures[:20],
    }
    return metrics, attempted, len(failures), extra


def _parse_args():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("pbw-expand", "center-solve", "shriek-frobenius"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="set up, print the set-up time and exit")
    return p.parse_args()


def main() -> int:
    args = _parse_args()
    weylkit, rounds, setup = _set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup[0], "raw_setup_s": setup[1]}))
        return 0
    if args.trace:
        metrics, attempted, failed, extra = _traced(args, rounds)
        units = PER_LAYER
    else:
        metrics, attempted, failed, extra = _end_to_end(args, rounds, setup)
        units = END_TO_END
    provenance = _provenance(weylkit, args, rounds)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"error_rate = {failed / attempted!r} ratio ({failed} failed of {attempted} attempted)")
    for key, value in extra.items():
        if key != "latencies_ms":
            print(f"{key}: {json.dumps(value)}")
    print(f"provenance: {json.dumps(provenance)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "provenance": provenance, **extra}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
