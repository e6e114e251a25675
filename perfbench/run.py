"""pde-lab benchmark: one workload per process, end-to-end or traced per layer.

    python3 perfbench/run.py --workload ks_train --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

A run sets up its inputs several times (``setup_s`` is the median), then
repeats the workload's timed round until ``--seconds`` is spent, at least
three times, and reports medians over rounds.  ``--trace 1`` instead wraps
the package's layers (see ``tracer.py``), alternates untraced and traced
rounds, and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object; everything else about the
run, the environment included, goes to ``.perfbench_work/<workload>/``.
Exit status is 0 only when every operation and correctness check passed.
"""

from __future__ import annotations

import os
import sys

# Pin the BLAS and OpenMP pools before anything imports numpy.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("ks_train", "ks_evaluate", "beta_events")
SETUP_REPEATS = 3
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4  # untraced warm-up, traced, untraced, traced


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# environment record


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libraries = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libraries):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(load_at_start) -> dict:
    import numpy
    import scipy

    sources = sorted((ROOT / "src" / "pde_lab").glob("*.py"))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "source_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_variables": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "openblas_threads": openblas_threads(),
        "cli_threads": 1,
    }


# ---------------------------------------------------------------------------
# one workload


@contextlib.contextmanager
def traced_section(tracer):
    """Install ``tracer``, if there is one, around the block; yields the list of its two marks."""
    marks: list[dict] = []
    if tracer is None:
        yield marks
        return
    tracer.install()
    marks.append(tracer.mark())
    try:
        yield marks
    finally:
        marks.append(tracer.mark())
        tracer.uninstall()


def one_round(workload, ctx, inputs, out, tracer=None) -> dict:
    with traced_section(tracer) as marks:
        t0 = time.perf_counter()
        stages = workload.run_round(ctx, inputs, out)
        wall = time.perf_counter() - t0
    return {"wall_s": wall, "stages": stages, "marks": tuple(marks) or None,
            "fingerprint": workload.fingerprint(out)}


def rounds_left(rounds, minimum, seconds, started) -> bool:
    """Another round fits when the minimum is not reached or a typical round fits the budget."""
    if len(rounds) < minimum:
        return True
    typical = statistics.median(r["wall_s"] for r in rounds)
    return time.perf_counter() - started + typical <= seconds


def run_workload(name: str, seed: int, seconds: float, trace: bool, load_at_start) -> int:
    import workloads
    from tracer import Tracer

    spec = load_spec()
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(load_at_start)
    print("environment: " + json.dumps(env, sort_keys=True), flush=True)

    workload = workloads.WORKLOADS[name](seed)
    ledger = workloads.Ledger()
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env}
    tracer = Tracer(uuid.uuid4().hex) if trace else None
    rounds: list[dict] = []
    with open(work / "cli.log", "w") as log:
        ctx = workloads.Context(ledger, log)
        try:
            setup_times, digests = [], []
            for k in range(1 if trace else SETUP_REPEATS):
                inputs = work / f"setup{k}"
                with traced_section(tracer) as setup_marks:
                    t0 = time.perf_counter()
                    inputs.mkdir()
                    digests.append(workload.setup(ctx, inputs))
                    setup_times.append(time.perf_counter() - t0)
            ledger.check("set-up reproduces itself", len(set(digests)) == 1)

            started = time.perf_counter()
            out = None
            while rounds_left(rounds, MIN_TRACED_ROUNDS if trace else MIN_ROUNDS,
                              seconds, started):
                # Each round writes into a fresh directory: overwriting the
                # previous round's files would make some filesystems flush
                # them to disk on close, and time the disk instead of the program.
                previous, out = out, work / f"round{len(rounds) + 1}"
                out.mkdir()
                traced = trace and len(rounds) % 2 == 1
                rounds.append(one_round(workload, ctx, inputs, out, tracer if traced else None))
                if previous is not None:
                    shutil.rmtree(previous)
                r = rounds[-1]
                print(f"round {len(rounds)}{' traced' if traced else ''}: "
                      f"wall {r['wall_s']:.3f} s, "
                      + ", ".join(f"{k} {w / s:.1f}/s" for k, (w, s) in r["stages"].items()),
                      flush=True)

            ledger.check("rounds reproduce each other",
                         len({r["fingerprint"] for r in rounds}) == 1)
            workload.check(ctx, inputs, out)
            if trace:
                metrics, extra = traced_metrics(workload, ledger, tracer, tuple(setup_marks),
                                                rounds, out)
                result.update(extra)
                tracer.save(work / "spans.npz")
            else:
                metrics = end_to_end_metrics(workload, ledger, setup_times, rounds, result)
        except workloads.StageFailed as exc:
            print(f"stage failed: {exc}", file=sys.stderr)
            metrics = {}

    failed = len(ledger.failures)
    result.update(attempted=ledger.attempted, failed=failed, failures=ledger.failures,
                  rounds=[{"wall_s": r["wall_s"], "stages": r["stages"],
                           "traced": r["marks"] is not None} for r in rounds],
                  metrics=metrics)
    (work / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)

    kind = "per_layer" if trace else "end_to_end"
    reported = {}
    for entry in spec[kind]:
        if entry["name"] in metrics:
            reported[entry["name"]] = {"value": metrics[entry["name"]], "unit": entry["unit"]}
    correct = failed == 0 and len(reported) == len(spec[kind])
    print(json.dumps({"correct": correct, "attempted": max(ledger.attempted, 1),
                      "failed": failed, "metrics": reported}))
    return 0 if correct else 1


def end_to_end_metrics(workload, ledger, setup_times, rounds, result) -> dict:
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - len(ledger.failures) / ledger.attempted,
    }
    named = {"setup_s": metrics["setup_s"], "wall_s": metrics["wall_s"],
             "peak_rss_mb": metrics["peak_rss_mb"],
             "failed_share": len(ledger.failures) / ledger.attempted}
    for i, (stage_name, _) in enumerate(workload.stage_names, start=1):
        slot = f"stage{i}"
        rate = statistics.median(r["stages"][slot][0] / r["stages"][slot][1] for r in rounds)
        metrics[f"{slot}_per_s"] = rate
        named[stage_name] = rate
    result["named_metrics"] = named
    units = dict(setup_s="s", wall_s="s", peak_rss_mb="MB", failed_share="share")
    units.update(workload.stage_names)
    for key, value in named.items():
        print(f"{workload.name} {key} = {value:.6g} {units[key]}")
    return metrics


def traced_metrics(workload, ledger, tracer, setup_marks, rounds, out) -> tuple[dict, dict]:
    """Per-layer metrics over one set-up and the mean traced round, plus exact-count checks."""
    traced = [r for r in rounds if r["marks"] is not None]
    untraced = [r for r in rounds if r["marks"] is None][1:]  # the first one warms up
    metrics = tracer.summarize([setup_marks], [r["marks"] for r in traced])
    metrics["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                       / statistics.median(r["wall_s"] for r in untraced))
    metrics["diagnostics.events_found_share"] = workload.events_found_share(out)

    setup_expected, round_expected = workload.expected_counts()
    sections = [("set-up", setup_marks, setup_expected)] + [
        (f"traced round {i}", r["marks"], round_expected) for i, r in enumerate(traced, 1)
    ]
    for label, marks, expected in sections:
        counted = tracer.summarize([marks])
        for key, value in expected.items():
            ledger.check(f"{label} {key} = {value}", counted[key] == value,
                         f"traced {counted[key]:.0f}")
    for layer in workload.bypassed:
        calls = sum(v for k, v in metrics.items()
                    if k.startswith(layer + ".") and k.endswith(".calls"))
        ledger.check(f"bypassed layer {layer} makes no calls", calls == 0, f"{calls:.0f} calls")

    def tape(r):
        return [(s["nodes"], s["traced_nodes"], s["bytes"], s["float64_nodes"])
                for s in tracer.steps_in(r["marks"])]

    tapes = [tape(r) for r in traced]
    ledger.check("tape counts repeat exactly across traced rounds",
                 all(t == tapes[0] for t in tapes)
                 and all(nodes == seen for nodes, seen, _, _ in tapes[0]))

    steps = [s for r in traced for s in tracer.steps_in(r["marks"])]
    extra = {"run_id": tracer.run_id, "baseline": workload.baseline(steps, metrics)}
    for key, value in extra["baseline"].items():
        print(f"{workload.name} baseline {key} = {value:.6g}")
    print(f"{workload.name} trace.overhead_ratio = {metrics['trace.overhead_ratio']:.4f}")
    return metrics, extra


# ---------------------------------------------------------------------------
# all workloads, one process each


def run_all(args) -> int:
    """Run every workload in its own process, one after another; print descriptive names."""
    combined, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if last is None or proc.returncode != 0:
            correct = False
        if last is None:
            continue
        attempted += last["attempted"]
        failed += last["failed"]
        result = json.loads((WORK / name / "result.json").read_text())
        values = result.get("named_metrics") or {k: v["value"] for k, v in last["metrics"].items()}
        for key, value in values.items():
            combined[f"{name}.{key}"] = value
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    if not (ROOT / "src" / "pde_lab" / "__init__.py").is_file():
        print(f"error: no pde_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT / 'BENCHMARK.json'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import pde_lab

    if Path(pde_lab.__file__).resolve().parent != (ROOT / "src" / "pde_lab").resolve():
        print(f"error: imported pde_lab from {pde_lab.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), load_at_start)


if __name__ == "__main__":
    sys.exit(main())
