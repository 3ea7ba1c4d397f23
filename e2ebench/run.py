"""End-to-end benchmark of quantitative rule mining and rule serving.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload scaleup --seed 1 --seconds 20 --trace 0

Workloads: ``scaleup``, ``fine_partition``, ``rule_serving`` and
``append_remine`` (see ``e2ebench/NOTES.md``).  ``--trace 0`` measures
the end-to-end metrics with tracing off; ``--trace 1`` is the separate
traced run that reports the per-layer ledger and writes its spans to
``.e2ebench/traces/``.  The run prints every metric by name with its
unit, then one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``.  It exits 1 when an output check fails and 2 when the
checkout holds no program source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: numpy/BLAS pools: one thread each, well within ``nproc``.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOAD_NAMES = (
    "scaleup", "fine_partition", "rule_serving", "append_remine"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"e2ebench: no program source under {SRC.name}/repro; run it "
            "from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    import repro
    import workloads
    from compose import CheckFailed

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"e2ebench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    # One core each for the benchmark and the server: the load comes
    # from one process, and neither migrates between cores mid-run.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    server_cpus = {cpus[1 % len(cpus)]}
    print(
        f"e2ebench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} nproc={len(cpus)} "
        f"benchmark_cpu={cpus[0]} server_cpu={min(server_cpus)} "
        f"blas_threads=1 python={platform.python_version()}"
    )
    run_dir = ROOT / ".e2ebench" / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        root=ROOT,
        run_dir=run_dir,
        env=env,
        server_cpus=server_cpus,
    )
    traced = bool(args.trace)
    out = workloads.Outcome(
        recorder=workloads.SpanRecorder() if traced else None
    )
    correct = True
    try:
        workloads.RUNNERS[args.workload, traced](ctx, out)
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}")
        correct = False
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in out.lines:
        print(line)
    if traced and out.recorder.spans:
        trace_path = (
            ROOT / ".e2ebench" / "traces"
            / f"{args.workload}-seed{args.seed}.jsonl"
        )
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        out.recorder.dump(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    for name, (value, unit) in out.metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()
                }
                if correct
                else {},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
