"""Smoke test of the benchmark itself:

    python3 bench/smoke.py

Runs every workload at its smallest size, untraced and traced, and asserts
that each run prints every metric of BENCHMARK.json with its unit, every
workload-specific report line, and no failed call. Then checks that the
benchmark refuses to run, without printing a result, in a directory holding
only BENCHMARK.json and the benchmark's own files. Exits non-zero on the
first problem.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Report lines every untraced run prints: the raw wall-clock figures.
UNTRACED = ["latency_ms.p50", "latency_ms.p90", "graphs_per_s", "host.ref_ms", "setup_s",
            "setup_s.wall", "peak_rss_mb", "failed_frac"]
#: Report lines each workload must print besides the JSON metrics.
REPORT_LINES = {
    ("analyze-large", 0): UNTRACED + ["analyze_ms.n100.p50"],
    ("cli-small", 0): UNTRACED + ["cli_ms.p50", "cli_ms.p90", "cli_ops_per_s"],
    ("sweep", 0): UNTRACED + ["sweep_graphs_per_s"],
    ("analyze-large", 1): [
        "graphs.classify_ms.n100", "graphs.complement_ms.n100", "graphs.adjacency_ms.n100",
        "representations.projected_spectrum_ms.n100",
        "representations.endpoint_sphericity_ms.n100", "edm.spherical_info_ms.n100",
        "representations.dim_spherical_ms.n100", "representations.j_spherical_ms.n100",
        "representations.euclidean_representation_ms.n100", "linalg.eigh_floor_ms.n100",
        "analyze.floor_ratio.n100", "analyze.unattributed_ms.n100",
        "linalg.decomps_per_analysis.gnp", "linalg.decomps_per_analysis.cycle",
        "linalg.decomps_per_analysis.paley", "trace.overhead_frac", "failed_frac"],
    ("cli-small", 1): ["graphs.parse_ms", "cli.self_ms", "oracle.verify_ms",
                       "representations.dim_spherical_ms", "representations.j_spherical_ms",
                       "representations.euclidean_representation_ms", "trace.overhead_frac",
                       "failed_frac"],
    ("sweep", 1): ["oracle.roots_ms_per_graph", "oracle.verify_ms",
                   "sweep.unattributed_ms_per_graph", "trace.overhead_frac", "failed_frac"],
}
LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)")


def check_run(workload: str, trace: int, spec: dict) -> None:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: {set(result)}"
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"], \
        f"{where}: {result['failed']} of {result['attempted']} calls failed\n{proc.stdout}"
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(wanted), f"{where}: metrics {sorted(set(got) ^ set(wanted))} differ"
    for name, unit in wanted.items():
        assert got[name]["unit"] == unit, f"{where}: {name} unit {got[name]['unit']}, want {unit}"
        assert math.isfinite(got[name]["value"]), f"{where}: {name} = {got[name]['value']}"
    reported = {m.group(1): (float(m.group(2)), m.group(3))
                for m in map(LINE.match, lines) if m}
    missing = [name for name in REPORT_LINES[(workload, trace)] if name not in reported]
    assert not missing, f"{where}: report lines missing: {missing}"
    assert reported["failed_frac"][0] == 0.0, f"{where}: failed_frac {reported['failed_frac']}"
    for name, (value, unit) in reported.items():
        if name.startswith("linalg.decomps_per_analysis."):
            assert value == int(value), f"{where}: {name} = {value} is not a whole count"
    print(f"ok {where}: {len(got)} metrics, {result['attempted']} calls", flush=True)


def check_bare_directory() -> None:
    """Without the program's sources the benchmark must fail without a result."""
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "cli-small",
                "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=tmp, capture_output=True, text=True, timeout=180)
    try:
        (ROOT / ".bench_tmp").rmdir()
    except OSError:  # a benchmark run still uses it
        pass
    assert proc.returncode != 0, "benchmark ran without the program's sources"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without the sources"
    print("ok bare directory: exit", proc.returncode, flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace in (0, 1):
        for workload in spec["workloads"]:
            check_run(workload["name"], trace, spec)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
