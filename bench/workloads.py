"""The benchmark's workloads, each a closed loop with one client in one process.

Every workload has an untraced run (end-to-end metrics) and a traced run
(per-layer metrics). The end-to-end metrics are the same for every workload;
"one call" is one call of the workload's entry point, and each input's
latency is the median of its calls:

- ``latency_ref.p50`` / ``latency_ref.p90``: latency of one call, in units of
  the benchmark's own reference kernel timed just before the call (see
  HostSpeed), over the workload's inputs with equal weight.
- ``graphs_per_ref``: graphs handled per reference-kernel time.

The same figures in ms and graphs per second, and the workload-specific ones
(per size class and family, per command kind, per graph), are printed as
report lines.

The traced run reports, per call and per graph handled, the self time of each
named stage (see spans.py), the entry point's unattributed self time, the
two-``eigh`` floor and the decomposition count.
"""

from __future__ import annotations

import gc
import io
import itertools
import json
import math
import resource
import statistics
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

import check
import gen
from spans import Recorder
from twodist import cli, oracle, representations
from twodist.graphs import Graph

# --- workload definitions ---------------------------------------------------

# analyze-large: representations.analyze_graph on G(n, 1/2), C_n and Paley P(q)
# at three sizes. Why: at large n the graph layer (the Python frozenset work in
# complement and classify), the eigendecompositions and edm.spherical_info do
# the work, which is the code the array-backed Graph and single spectral
# pipeline target. The families take different branches: G(n, 1/2) is general
# with non-spherical endpoints (3 dense decompositions per analysis); C_n and
# Paley are regular, take the regular-graph branch of projected_spectrum and
# the spherical_info radii (12 decompositions) and have high multiplicities.
# n ~ 1000 is left out: one analysis takes several seconds there today.
SIZE_CLASSES = (("n100", 100, 101), ("n300", 300, 281), ("n600", 600, 601))
FAMILIES = ("gnp", "cycle", "paley")
#: An input is analysed again until its calls in one visit used this long, so
#: cheap inputs get several samples per visit and large ones one.
CELL_REPEAT_S = 0.3

# cli-small: in-process twodist.cli.main on random graph6 strings, n = 5..40,
# mixed densities, mixing analyze with the three embed modes. Why: the
# eigendecompositions are tiny, so per-call overhead dominates (argparse, graph6
# parsing, dataclasses, configuration building, verification, JSON and CSV
# output), and it writes files. A change that speeds up large n by adding fixed
# per-call cost shows here. Exit 4 on a spherical endpoint is a legitimate
# answer; every exit code is compared with the recorded one.
CLI_KINDS = ("analyze", "jspherical", "euclidean", "lower", "upper")
CLI_WEIGHTS = (0.4, 0.2, 0.2, 0.1, 0.1)
#: Any beta in (39/40, 1) is feasible for a non-degenerate graph on n <= 40
#: nodes, because mu_max <= n - 1 puts beta_l at or below (n - 1)/n.
CLI_BETA = (39 / 40, 1.0)

# sweep: oracle.invariant_sweep(n_max=5, sample_7_8=S, seed=<workload seed>)
# with its default worker count, as `twodist sweep` runs it. Why: many tiny
# graphs; the batched bisection, per-graph record building, complement pairing
# and the multiprocessing pool do the work, which is the code a vectorised
# sweep replaces. Large-graph analysis does almost none.
SWEEP_N_MAX = 5
SWEEP_SAMPLES = 100
#: Smoke runs shrink each workload to its smallest size.
SMOKE_CLASSES = SIZE_CLASSES[:1]
SMOKE_SWEEP_SAMPLES = 2

STAGE_METRICS = (
    "graphs.parse", "graphs.classify", "graphs.complement", "graphs.adjacency",
    "representations.projected_spectrum", "representations.endpoint_sphericity",
    "edm.spherical_info", "representations.dim_spherical", "representations.j_spherical",
    "representations.euclidean_representation",
)


# --- results ----------------------------------------------------------------

@dataclass
class Outcome:
    """What a run measured and how many of its calls failed."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)   # JSON metrics: name -> (value, unit)
    lines: list = field(default_factory=list)     # report lines: (name, value, unit, note)
    rss_mb: float = 0.0
    _current_failed: bool = False

    def begin(self) -> None:
        """Start one call; it fails if ``fail`` is called before the next."""
        self.attempted += 1
        self._current_failed = False

    def fail(self, message: str) -> None:
        self.failures.append(message)
        if not self._current_failed:
            self.failed += 1
            self._current_failed = True

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def line(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.lines.append((name, float(value), unit, note))


def peak_rss_mb() -> float:
    """High-water resident memory so far: this process plus its largest
    waited-for child (ru_maxrss is in KiB on Linux)."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def p90(values) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def _summarize(out: Outcome, raw: list, rel: list, graphs: list, calls: str) -> None:
    """End-to-end metrics from per-input call latencies.

    ``raw[i]`` holds input i's call latencies in ms, ``rel[i]`` the same
    calls divided by the host reference time taken just before each, and
    ``graphs[i]`` the graphs one call on input i handles. Each input weighs
    the same: its latency is the median of its calls, and the percentiles
    run over inputs, so cheap inputs that got more calls do not dominate.
    """
    rel_in = [statistics.median(v) for v in rel]
    raw_in = [statistics.median(v) for v in raw]
    note = f"over {len(rel_in)} inputs, {calls}"
    for name, value, unit in (("latency_ref.p50", statistics.median(rel_in), "ref"),
                              ("latency_ref.p90", p90(rel_in), "ref"),
                              ("graphs_per_ref", sum(graphs) / sum(rel_in), "1/ref")):
        out.metric(name, value, unit)
        out.line(name, value, unit, note)
    for name, value, unit in (("latency_ms.p50", statistics.median(raw_in), "ms"),
                              ("latency_ms.p90", p90(raw_in), "ms"),
                              ("graphs_per_s", sum(graphs) / (sum(raw_in) / 1e3), "1/s")):
        out.line(name, value, unit, note)


def _layer_metrics(out: Outcome, records: list, per: str) -> None:
    """Per-layer JSON metrics from per-call records, each weighing the same.

    A record holds ``self`` (ms per span name), ``entry_ms`` (untraced call
    with the workload's own settings), ``base_ms`` (untraced call with the
    traced call's settings), ``traced_ms``, ``floor_ms`` and ``decomps``, all
    already divided by the graphs the call handled when ``per`` is "graph".
    """
    def mean(key):
        return statistics.fmean(r[key] for r in records)

    for stage in STAGE_METRICS:
        value = statistics.fmean(r["self"].get(stage, 0.0) for r in records)
        out.metric(f"{stage}_ms", value, "ms")
        out.line(f"{stage}_ms", value, "ms", f"self time per {per}")
    unattributed = statistics.fmean(r["self"]["entry"] for r in records)
    floor = mean("floor_ms")
    ratio = sum(r["entry_ms"] for r in records) / sum(r["floor_ms"] for r in records)
    overhead = sum(r["traced_ms"] for r in records) / sum(r["base_ms"] for r in records) - 1.0
    decomps = mean("decomps")
    note = f"per {per}, {len(records)} records"
    for name, value, unit in (("entry.unattributed_ms", unattributed, "ms"),
                              ("linalg.eigh_floor_ms", floor, "ms"),
                              ("entry.floor_ratio", ratio, "ratio"),
                              ("linalg.decomps_per_op", decomps, "count"),
                              ("trace.overhead_frac", overhead, "frac")):
        out.metric(name, value, unit)
        out.line(name, value, unit, note)


# --- the eigh floor -----------------------------------------------------------

_BASES: dict = {}


def _basis(n: int) -> np.ndarray:
    """Orthonormal basis of the complement of the all-ones vector (own code)."""
    if n not in _BASES:
        q, _ = np.linalg.qr(np.column_stack([np.ones(n), np.eye(n)[:, :n - 1]]))
        _BASES[n] = q[:, 1:]
    return _BASES[n]


def floor_ms(graph: tuple) -> float:
    """Time of the two decompositions every answer needs: raw numpy eigh of
    V.T A V and of the complement adjacency. The reference, not the program."""
    n = graph[0]
    a = gen.adjacency(graph)
    v = _basis(n)
    m = v.T @ a @ v
    abar = 1.0 - np.eye(n) - a
    t0 = time.perf_counter()
    np.linalg.eigh(m)
    np.linalg.eigh(abar)
    return (time.perf_counter() - t0) * 1e3


# --- host speed reference -------------------------------------------------------

_REF_PAIRS = list(combinations(range(150), 2))
_REF_MATRIX = np.random.default_rng(0).random((120, 120))
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.T


def reference_ms() -> float:
    """A fixed mix of Python set work and one small eigh, owned by the
    benchmark: its time tracks the host's speed, not twodist's."""
    t0 = time.perf_counter()
    edges = frozenset(p for p in _REF_PAIRS if (p[0] * 31 + p[1]) % 3)
    adj = [set() for _ in range(150)]
    for u, v in _REF_PAIRS:
        if (u, v) not in edges:
            adj[u].add(v)
            adj[v].add(u)
    np.linalg.eigh(_REF_MATRIX)
    return (time.perf_counter() - t0) * 1e3


class HostSpeed:
    """Times reference_ms between calls, at most every INTERVAL_S.

    A shared host can run a third slower for tens of seconds while other
    tenants load it, which moves every wall-clock figure of a run together.
    Dividing each call by the reference times taken just before and just
    after it cancels most of that drift; the raw times are reported too.
    """

    INTERVAL_S = 0.5
    RUNS = 3

    def __init__(self):
        self.samples = []
        self._last = -math.inf

    def tick(self) -> int:
        """Index of the current reference sample, re-measured when stale."""
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.samples.append(statistics.median(reference_ms() for _ in range(self.RUNS)))
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def split(self, calls: list) -> tuple:
        """(raw, rel) from per-input lists of (ms, tick index) pairs: raw in
        ms, rel divided by the mean of the samples before and after."""
        self._last = -math.inf
        self.tick()  # the sample after the last call
        raw = [[ms for ms, _ in pairs] for pairs in calls]
        rel = [[ms / (0.5 * (self.samples[i] + self.samples[i + 1])) for ms, i in pairs]
               for pairs in calls]
        return raw, rel

    def report(self, out: Outcome) -> None:
        out.line("host.ref_ms", statistics.median(self.samples), "ms",
                 f"median of {len(self.samples)} reference samples")


# --- analyze-large ------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    size: str
    family: str
    key: str
    graph: tuple


def analyze_cells(seed: int, smoke: bool) -> list:
    """The fixed, seeded input set: one graph per family and size class."""
    rng = np.random.default_rng([seed, 1])
    cells = []
    for label, n, q in (SMOKE_CLASSES if smoke else SIZE_CLASSES):
        k = int(rng.integers(gen.GNP_POOL))
        cells.append(Cell(label, "gnp", f"gnp-{n}-{k}", gen.gnp(n, 0.5, k)))
        cells.append(Cell(label, "cycle", f"cycle-{n}", gen.cycle(n)))
        cells.append(Cell(label, "paley", f"paley-{q}", gen.paley(q)))
    return cells


def _recorded(golden: dict, key: str, graph: tuple):
    """The recorded digest, or None if this input was never recorded."""
    entry = golden.get(key)
    if entry is None or entry["fingerprint"] != gen.fingerprint(graph):
        return None
    return entry


def _analyze(cell: Cell, g: Graph, want, out: Outcome, span=nullcontext) -> float:
    """One checked analyze_graph call; returns its latency in ms."""
    out.begin()
    gc.collect()  # no garbage from earlier calls left to collect in this one
    try:
        with span():
            t0 = time.perf_counter()
            report = representations.analyze_graph(g)
            ms = (time.perf_counter() - t0) * 1e3
    except Exception as exc:  # a traceback is a failed call, not a crashed run
        out.fail(f"{cell.key}: {type(exc).__name__}: {exc}")
        return (time.perf_counter() - t0) * 1e3
    if want is None:
        out.fail(f"{cell.key}: no recorded digest for this input (generator drift?)")
    else:
        problem = check.digest_mismatch(check.report_digest(report), want["digest"])
        if problem:
            out.fail(f"{cell.key}: {problem}")
    return ms


def run_analyze(seed: int, seconds: float, smoke: bool) -> Outcome:
    out = Outcome()
    golden = check.load_golden()["analyze"]
    cells = analyze_cells(seed, smoke)
    wanted = {c.key: _recorded(golden, c.key, c.graph) for c in cells}
    rng = np.random.default_rng([seed, 11])
    samples = {c.key: [] for c in cells}
    # Each round visits every input except those of the largest size class,
    # which take turns: rounds stay short, so every input is sampled at
    # several moments of the run rather than in one or two bursts.
    largest = [c for c in cells if c.size == cells[-1].size]
    others = [c for c in cells if c.size != cells[-1].size]
    host = HostSpeed()
    deadline = time.perf_counter() + seconds
    for turn in itertools.count():
        for c in others + [largest[turn % len(largest)]]:
            used = 0.0
            while used < CELL_REPEAT_S * 1e3:
                if time.perf_counter() >= deadline and all(samples.values()):
                    break
                g = Graph.from_edges(*gen.relabel(c.graph, rng))
                tick = host.tick()
                ms = _analyze(c, g, wanted[c.key], out)
                samples[c.key].append((ms, tick))
                used += ms
        if turn == len(largest) - 1:
            out.rss_mb = peak_rss_mb()
        if time.perf_counter() >= deadline and all(samples.values()):
            break
    calls = sum(len(s) for s in samples.values())
    raw, rel = host.split(list(samples.values()))
    _summarize(out, raw, rel, [1] * len(cells), f"{calls} calls")
    host.report(out)
    cell_ms = {c.key: statistics.median(ms) for c, ms in zip(cells, raw)}
    for label in dict.fromkeys(c.size for c in cells):
        mine = [c for c in cells if c.size == label]
        out.line(f"analyze_ms.{label}.p50", statistics.median(cell_ms[c.key] for c in mine), "ms",
                 f"median of {len(mine)} per-input medians, "
                 f"{sum(len(samples[c.key]) for c in mine)} calls")
        for c in mine:
            out.line(f"analyze_ms.{label}.{c.family}.p50", cell_ms[c.key], "ms",
                     f"{len(samples[c.key])} calls")
    return out


def trace_analyze(seed: int, seconds: float, smoke: bool) -> Outcome:
    out = Outcome()
    golden = check.load_golden()["analyze"]
    cells = analyze_cells(seed, smoke)
    rng = np.random.default_rng([seed, 12])
    rec = Recorder()
    per_cell = {}
    for c in cells:
        want = _recorded(golden, c.key, c.graph)
        rows, used = [], 0.0
        while not rows or used < CELL_REPEAT_S * 1e3:
            floor = statistics.median(floor_ms(c.graph) for _ in range(3))
            entry = _analyze(c, Graph.from_edges(*gen.relabel(c.graph, rng)), want, out)
            n, edges = gen.relabel(c.graph, rng)
            with rec.span("graphs.parse"):
                g = Graph.from_edges(n, edges)
            _analyze(c, g, want, out, span=rec.entry)
            self_ms, total_ms, decomps = rec.take()
            rows.append({"self": self_ms, "entry_ms": entry, "base_ms": entry,
                         "traced_ms": total_ms["entry"], "floor_ms": floor,
                         "decomps": sum(decomps.values()), "by_kind": decomps})
            used += entry
        per_cell[c.key] = _mean_record(rows)
    _layer_metrics(out, list(per_cell.values()), "analysis")
    for label in dict.fromkeys(c.size for c in cells):
        mine = [per_cell[c.key] for c in cells if c.size == label]
        for stage in STAGE_METRICS:
            out.line(f"{stage}_ms.{label}",
                     statistics.fmean(r["self"].get(stage, 0.0) for r in mine), "ms",
                     "self time per analysis")
        out.line(f"analyze.unattributed_ms.{label}",
                 statistics.fmean(r["self"]["entry"] for r in mine), "ms", "per analysis")
        floor = statistics.median(r["floor_ms"] for r in mine)
        entry = statistics.median(r["entry_ms"] for r in mine)
        out.line(f"linalg.eigh_floor_ms.{label}", floor, "ms", "median over families")
        out.line(f"analyze_ms.{label}.p50", entry, "ms", "untraced, median over families")
        out.line(f"analyze.floor_ratio.{label}", entry / floor, "ratio")
    for family in FAMILIES:
        mine = [per_cell[c.key] for c in cells if c.family == family]
        kinds = {}
        for r in mine:
            for kind, count in r["by_kind"].items():
                kinds[kind] = kinds.get(kind, 0.0) + count / len(mine)
        detail = ", ".join(f"{kinds[k]:g} {k}" for k in sorted(kinds))
        out.line(f"linalg.decomps_per_analysis.{family}",
                 statistics.fmean(r["decomps"] for r in mine), "count", detail)
    return out


def _mean_record(rows: list) -> dict:
    """Average the per-call records of one input into one record."""
    spans = {name for r in rows for name in r["self"]}
    kinds = {name for r in rows for name in r["by_kind"]}
    mean = {key: statistics.fmean(r[key] for r in rows)
            for key in ("entry_ms", "base_ms", "traced_ms", "floor_ms", "decomps")}
    mean["self"] = {s: statistics.fmean(r["self"].get(s, 0.0) for r in rows) for s in spans}
    mean["by_kind"] = {k: statistics.fmean(r["by_kind"].get(k, 0) for r in rows) for k in kinds}
    return mean


# --- cli-small ------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    pool: int
    kind: str
    beta: float


def cli_argv(kind: str, g6: str, out_csv: Path, beta: float) -> list:
    if kind == "analyze":
        return ["analyze", "--g6", g6]
    argv = ["embed", "--g6", g6, "--out", str(out_csv)]
    if kind == "jspherical":
        return argv + ["--mode", "jspherical"]
    if kind == "euclidean":
        return argv + ["--mode", "euclidean", "--beta", repr(beta)]
    return argv + ["--mode", "spherical", "--side", kind]


def run_cli(argv: list, span=nullcontext) -> tuple:
    """(exit code, ms, stdout) of one in-process twodist command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr), span():
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
        ms = (time.perf_counter() - t0) * 1e3
    return code, ms, stdout.getvalue()


def cli_commands(seed: int) -> list:
    """One command per pool graph, the kinds dealt out in fixed proportions:
    seeds differ in which graph gets which kind and beta, not in the mix."""
    rng = np.random.default_rng([seed, 2])
    kinds = [kind for kind, weight in zip(CLI_KINDS, CLI_WEIGHTS)
             for _ in range(round(weight * gen.CLI_POOL))]
    assert len(kinds) == gen.CLI_POOL, "CLI_WEIGHTS must deal out the whole pool"
    rng.shuffle(kinds)
    betas = CLI_BETA[0] + (CLI_BETA[1] - CLI_BETA[0]) * rng.uniform(0.1, 0.9, len(kinds))
    return [Command(pool, kind, float(beta))
            for pool, (kind, beta) in enumerate(zip(kinds, betas))]


class CliRunner:
    """Runs and checks commands; CSV and sidecar files go to ``tmp``."""

    def __init__(self, tmp: Path, out: Outcome):
        self.csv = tmp / "points.csv"
        self.out = out
        self.golden = check.load_golden()["cli"]
        self.bases: dict = {}

    def base(self, pool: int) -> tuple:
        if pool not in self.bases:
            self.bases[pool] = gen.random_small(pool)
        return self.bases[pool]

    def call(self, cmd: Command, graph: tuple, span=nullcontext) -> float:
        """One checked command on a labelled graph; returns its latency in ms."""
        out = self.out
        out.begin()
        label = f"cli #{cmd.pool} {cmd.kind}"
        argv = cli_argv(cmd.kind, gen.graph6(graph), self.csv, cmd.beta)
        try:
            code, ms, stdout = run_cli(argv, span)
        except Exception as exc:  # a traceback is a failed call, not a crashed run
            out.fail(f"{label}: {type(exc).__name__}: {exc}")
            return 0.0
        try:
            entry = self.golden.get(str(cmd.pool))
            if entry is None or entry["fingerprint"] != gen.fingerprint(self.base(cmd.pool)):
                out.fail(f"{label}: no recorded answer for this input (generator drift?)")
                return ms
            want = entry[cmd.kind]
            if code != want["exit"]:
                out.fail(f"{label}: exit {code}, recorded {want['exit']}")
            elif cmd.kind == "analyze" and code == 0:
                problem = check.digest_mismatch(check.document_digest(json.loads(stdout)),
                                                want["digest"])
                if problem:
                    out.fail(f"{label}: {problem}")
            elif code == 0:
                self._check_csv(cmd, graph, label)
        finally:
            self.csv.unlink(missing_ok=True)
            Path(str(self.csv) + ".json").unlink(missing_ok=True)
        return ms

    def _check_csv(self, cmd: Command, graph: tuple, label: str) -> None:
        with open(str(self.csv) + ".json", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        if cmd.kind == "euclidean" and sidecar["beta"] != cmd.beta:
            self.out.fail(f"{label}: sidecar beta {sidecar['beta']!r}, requested {cmd.beta!r}")
        problem = check.verify_csv(self.csv, gen.adjacency(graph), sidecar["alpha"],
                                   sidecar["beta"])
        if problem:
            self.out.fail(f"{label}: {problem}")


def run_cli_small(seed: int, seconds: float, tmp: Path) -> Outcome:
    out = Outcome()
    runner = CliRunner(tmp, out)
    # The command set runs in passes, each call on a fresh labelling.
    cmds = cli_commands(seed)
    rng = np.random.default_rng([seed, 21])
    calls = [[] for _ in cmds]
    host = HostSpeed()
    deadline = time.perf_counter() + seconds
    for turn in itertools.count():
        if turn and time.perf_counter() >= deadline:
            break
        gc.collect()  # once per pass: a collection costs about two commands
        for cmd, slot in zip(cmds, calls):
            if turn and time.perf_counter() >= deadline:
                break
            tick = host.tick()
            slot.append((runner.call(cmd, gen.relabel(runner.base(cmd.pool), rng)), tick))
        if turn == 0:
            out.rss_mb = peak_rss_mb()
    raw, rel = host.split(calls)
    calls = sum(len(v) for v in raw)
    _summarize(out, raw, rel, [1] * len(cmds), f"{calls} commands")
    host.report(out)
    per_cmd = [statistics.median(v) for v in raw]
    for name, value, unit in (("cli_ms.p50", statistics.median(per_cmd), "ms"),
                              ("cli_ms.p90", p90(per_cmd), "ms"),
                              ("cli_ops_per_s", len(per_cmd) / (sum(per_cmd) / 1e3), "1/s")):
        out.line(name, value, unit, f"over {len(cmds)} commands, {calls} calls")
    return out


def trace_cli_small(seed: int, seconds: float, tmp: Path) -> Outcome:
    out = Outcome()
    runner = CliRunner(tmp, out)
    rec = Recorder()
    records = []
    rng = np.random.default_rng([seed, 22])
    deadline = time.perf_counter() + seconds
    for cmd in itertools.cycle(cli_commands(seed)):
        if records and time.perf_counter() >= deadline:
            break
        base = runner.base(cmd.pool)
        entry = runner.call(cmd, gen.relabel(base, rng))
        graph = gen.relabel(base, rng)
        runner.call(cmd, graph, span=rec.entry)
        self_ms, total_ms, decomps = rec.take()
        records.append({"self": self_ms, "entry_ms": entry, "base_ms": entry,
                        "traced_ms": total_ms["entry"], "floor_ms": floor_ms(graph),
                        "decomps": sum(decomps.values()), "kind": cmd.kind})
    _layer_metrics(out, records, "command")
    out.line("cli.self_ms", statistics.fmean(r["self"]["entry"] for r in records), "ms",
             f"per command, {len(records)} commands")
    out.line("oracle.verify_ms", statistics.fmean(r["self"].get("oracle.verify", 0.0)
                                                  for r in records), "ms", "per command")
    for kind in CLI_KINDS:
        mine = [r["entry_ms"] for r in records if r["kind"] == kind]
        if mine:
            out.line(f"cli_ms.{kind}.p50", statistics.median(mine), "ms", f"{len(mine)} commands")
    return out


# --- sweep ----------------------------------------------------------------------

def _sweep_call(seed: int, samples: int, want: dict, out: Outcome, workers=None,
                span=nullcontext):
    """One checked invariant_sweep call: (seconds, summary dict or None)."""
    out.begin()
    gc.collect()
    try:
        with span():
            t0 = time.perf_counter()
            summary = oracle.invariant_sweep(SWEEP_N_MAX, sample_7_8=samples, seed=seed,
                                             workers=workers)
            elapsed = time.perf_counter() - t0
    except Exception as exc:  # a traceback is a failed call, not a crashed run
        out.fail(f"sweep: {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, None
    doc = summary.to_dict()
    doc.pop("elapsed_seconds")
    if not summary.ok:
        out.fail(f"sweep: {len(summary.violations)} violations, first {summary.violations[0]}")
    elif doc["graphs_checked"] != want["graphs_checked"] or doc["per_n"] != want["per_n"]:
        out.fail(f"sweep: checked {doc['per_n']}, recorded {want['per_n']}")
    return elapsed, doc


def _sweep_setup(seed: int, smoke: bool) -> tuple:
    samples = SMOKE_SWEEP_SAMPLES if smoke else SWEEP_SAMPLES
    return samples, check.load_golden()["sweep"][str(samples)]


def run_sweep(seed: int, seconds: float, smoke: bool) -> Outcome:
    out = Outcome()
    samples, want = _sweep_setup(seed, smoke)
    calls, first = [], None
    host = HostSpeed()
    deadline = time.perf_counter() + seconds
    while not calls or time.perf_counter() < deadline:
        tick = host.tick()
        elapsed, doc = _sweep_call(seed, samples, want, out)
        calls.append((elapsed * 1e3, tick))
        out.rss_mb = out.rss_mb or peak_rss_mb()
        if doc is None:
            continue
        if first is None:
            first = doc
        elif doc != first:
            out.fail("sweep: a repeated call with the same seed gave a different summary")
    graphs = want["graphs_checked"]
    (call_ms,), rel = host.split([calls])
    _summarize(out, [call_ms], rel, [graphs], f"{len(call_ms)} calls of {graphs} graphs")
    host.report(out)
    out.line("sweep_graphs_per_s", graphs / (statistics.median(call_ms) / 1e3), "1/s",
             f"median of {len(call_ms)} calls")
    return out


def _sweep_graphs(samples: int, seed: int) -> list:
    """The graphs a sweep checks, generated here: every labelled graph on
    2..n_max nodes plus random ones on 7 and 8 nodes (for the floor)."""
    out = []
    for n in range(2, SWEEP_N_MAX + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            out.append((n, [p for k, p in enumerate(pairs) if mask >> k & 1]))
    for i in range(samples // 2):
        out.extend([gen.gnp(7, 0.5, seed * 1000 + i), gen.gnp(8, 0.5, seed * 1000 + i)])
    return out


def trace_sweep(seed: int, seconds: float, smoke: bool) -> Outcome:
    out = Outcome()
    samples, want = _sweep_setup(seed, smoke)
    rec = Recorder()
    entry_s, doc = _sweep_call(seed, samples, want, out)
    base_s, _ = _sweep_call(seed, samples, want, out, workers=1)
    _sweep_call(seed, samples, want, out, workers=1, span=rec.entry)
    self_ms, total_ms, decomps = rec.take()
    graphs = doc["graphs_checked"] if doc else want["graphs_checked"]
    floor = sum(floor_ms(g) for g in _sweep_graphs(samples, seed))
    record = {"self": {k: v / graphs for k, v in self_ms.items()},
              "entry_ms": entry_s * 1e3 / graphs, "base_ms": base_s * 1e3 / graphs,
              "traced_ms": total_ms["entry"] / graphs, "floor_ms": floor / graphs,
              "decomps": sum(decomps.values()) / graphs}
    _layer_metrics(out, [record], "graph")
    note = "per graph checked, one process (workers=1)"
    out.line("sweep.unattributed_ms_per_graph", record["self"]["entry"], "ms", note)
    out.line("oracle.roots_ms_per_graph", record["self"].get("oracle.roots", 0.0), "ms", note)
    out.line("oracle.verify_ms", record["self"].get("oracle.verify", 0.0), "ms", note)
    return out
