"""twodist benchmark: one command, every metric by name with its unit.

    python3 bench/run.py --workload analyze-large|cli-small|sweep \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the benchmark imports twodist from
the checkout's ``src/`` and refuses to run without it. ``--trace 0`` measures
the end-to-end metrics with nothing installed; ``--trace 1`` is the separate
traced run that gives the per-layer metrics (see workloads.py and spans.py).

Report lines (``metric``, ``host``, ``failure``) come first; the last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 whenever a result is printed; a failed check
shows as ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".bench_tmp"

WORKLOADS = ("analyze-large", "cli-small", "sweep")
#: BLAS runs single-threaded: on a 2-CPU host the sweep's two worker processes
#: would otherwise each start one BLAS thread per CPU, and timings would depend
#: on how those threads contend. Set before numpy is first imported.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Fresh interpreters launched to time set-up; the first warms the bytecode
#: cache and is not counted.
SETUP_LAUNCHES = 9
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from twodist import analyze_graph, parse_graph6; "
              "analyze_graph(parse_graph6('Dug'))")
#: setup_s is given for a host on which workloads.reference_ms takes this many
#: ms: each launch's wall time is scaled by REF_NOMINAL_MS over the reference
#: time measured around it, so that host-speed drift between runs cancels,
#: as it does for the other timings (see workloads.HostSpeed).
REF_NOMINAL_MS = 5.0


def measure_setup() -> tuple:
    """Wall time for a fresh interpreter to import twodist and analyse one
    5-node graph: (scaled median, wall median, launches)."""
    from workloads import reference_ms

    def ref() -> float:
        return statistics.median(reference_ms() for _ in range(3))

    wall, scaled = [], []
    for i in range(SETUP_LAUNCHES + 1):
        before = ref()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - t0
        if i:
            wall.append(seconds)
            scaled.append(seconds * REF_NOMINAL_MS / (0.5 * (before + ref())))
    return statistics.median(scaled), statistics.median(wall), len(wall)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_record() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form of its build config
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    threads = {k: os.environ.get(k) for k in BLAS_THREADS}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        # invariant_sweep's default when workers is None
        "sweep_workers": min(os.cpu_count() or 1, 8),
        "commit": git_commit(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink the workload to its smallest size (used by smoke.py)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run(args, tmp: Path):
    import workloads
    if args.workload == "analyze-large":
        fn = workloads.trace_analyze if args.trace else workloads.run_analyze
        return fn(args.seed, args.seconds, args.smoke)
    if args.workload == "cli-small":
        fn = workloads.trace_cli_small if args.trace else workloads.run_cli_small
        return fn(args.seed, args.seconds, tmp)
    fn = workloads.trace_sweep if args.trace else workloads.run_sweep
    return fn(args.seed, args.seconds, args.smoke)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twodist" / "__init__.py").is_file():
        print(f"error: no twodist sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import twodist
    if Path(twodist.__file__).resolve().parent != (SRC / "twodist").resolve():
        print(f"error: imported twodist from {twodist.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    setup = None if args.trace else measure_setup()
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        out = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:  # another run still uses it
            pass

    if setup is not None:
        out.metric("setup_s", setup[0], "s")
        out.line("setup_s", setup[0], "s",
                 f"median of {setup[2]} fresh interpreters, at {REF_NOMINAL_MS:g} ms per reference")
        out.line("setup_s.wall", setup[1], "s", f"median of {setup[2]} fresh interpreters")
        out.metric("peak_rss_mb", out.rss_mb, "MB")
        out.line("peak_rss_mb", out.rss_mb, "MB",
                 "this process plus its largest child, after the first pass over the inputs")
    failed = out.failed
    out.line("failed_frac", failed / max(out.attempted, 1), "frac",
             f"{failed} of {out.attempted} calls")

    print("host " + json.dumps(host_record(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}{' smoke' if args.smoke else ''}")
    for name, value, unit, note in out.lines:
        print(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for message in out.failures[:20]:
        print(f"failure {message}")
    if len(out.failures) > 20:
        print(f"failure ... and {len(out.failures) - 20} more")
    result = {"correct": failed == 0, "attempted": out.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in out.metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
