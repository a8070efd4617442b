"""Record golden.json: the answers of the current code for every input the
workloads can generate. It is run once, at the commit that defines the
benchmark, and every later run is compared against it:

    python3 bench/record_golden.py

Each input is answered under two labellings, which must agree; the Paley and
cycle multiplicities are also checked against their closed-form spectra.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import run

sys.path.insert(0, str(run.SRC))

import check  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from twodist import oracle, representations  # noqa: E402
from twodist.graphs import Graph  # noqa: E402


def _same(records: list, what: str) -> dict:
    first, second = records
    if first.get("exit") != second.get("exit"):
        raise SystemExit(f"{what}: relabelling changed the exit code {first} -> {second}")
    if "digest" in first:
        problem = check.digest_mismatch(second["digest"], first["digest"])
        if problem:
            raise SystemExit(f"{what}: relabelling changed the answer: {problem}")
    return first


def record_analyze(graph: tuple, rng: np.random.Generator, key: str) -> dict:
    records = [{"digest": check.report_digest(
        representations.analyze_graph(Graph.from_edges(*labelled)))}
        for labelled in (graph, gen.relabel(graph, rng))]
    return {"fingerprint": gen.fingerprint(graph), **_same(records, key)}


def closed_form(key: str, digest: dict) -> None:
    """Paley P(q): V.T A V has (-1 +- sqrt q)/2, each (q-1)/2 times.
    C_n, n even: 2 cos(2 pi/n) twice on top, -2 once at the bottom."""
    family, n = key.split("-")[0], int(key.split("-")[1])
    want = {"paley": ((n - 1) // 2, (n - 1) // 2), "cycle": (1, 2)}.get(family)
    if want and (digest["m_min"], digest["m_max"]) != want:
        raise SystemExit(f"{key}: multiplicities {digest['m_min']}, {digest['m_max']} "
                         f"disagree with the closed form {want}")


def record_cli(pool: int, rng: np.random.Generator, csv: Path) -> dict:
    base = gen.random_small(pool)
    entry = {"fingerprint": gen.fingerprint(base)}
    beta = 0.5 * sum(workloads.CLI_BETA)
    for kind in workloads.CLI_KINDS:
        records = []
        for labelled in (base, gen.relabel(base, rng)):
            argv = workloads.cli_argv(kind, gen.graph6(labelled), csv, beta)
            code, _, stdout = workloads.run_cli(argv)
            rec = {"exit": code}
            if kind == "analyze" and code == 0:
                rec["digest"] = check.document_digest(json.loads(stdout))
            records.append(rec)
            csv.unlink(missing_ok=True)
            Path(str(csv) + ".json").unlink(missing_ok=True)
        entry[kind] = _same(records, f"cli #{pool} {kind}")
    return entry


def record_sweep(samples: int) -> dict:
    docs = []
    for seed in (0, 1):
        summary = oracle.invariant_sweep(workloads.SWEEP_N_MAX, sample_7_8=samples, seed=seed)
        if not summary.ok:
            raise SystemExit(f"sweep reports violations: {summary.violations[:3]}")
        docs.append({"graphs_checked": summary.graphs_checked,
                     "per_n": summary.to_dict()["per_n"]})
    if docs[0] != docs[1]:
        raise SystemExit(f"sweep size depends on the seed: {docs}")
    return docs[0]


def main() -> int:
    rng = np.random.default_rng(20181013)
    golden = {"commit": run.git_commit(), "analyze": {}, "cli": {}, "sweep": {}}
    for _, n, q in workloads.SIZE_CLASSES:
        inputs = [(f"gnp-{n}-{k}", gen.gnp(n, 0.5, k)) for k in range(gen.GNP_POOL)]
        inputs += [(f"cycle-{n}", gen.cycle(n)), (f"paley-{q}", gen.paley(q))]
        for key, graph in inputs:
            golden["analyze"][key] = record_analyze(graph, rng, key)
            closed_form(key, golden["analyze"][key]["digest"])
            print(key, golden["analyze"][key]["digest"], flush=True)
    run.TMP_PARENT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.TMP_PARENT) as tmp:
        for pool in range(gen.CLI_POOL):
            golden["cli"][str(pool)] = record_cli(pool, rng, Path(tmp) / "points.csv")
    print("cli", {k: sum(e[k]["exit"] == 0 for e in golden["cli"].values())
                  for k in workloads.CLI_KINDS}, "exit-0 counts of", gen.CLI_POOL, flush=True)
    for samples in (workloads.SWEEP_SAMPLES, workloads.SMOKE_SWEEP_SAMPLES):
        golden["sweep"][str(samples)] = record_sweep(samples)
        print("sweep", samples, golden["sweep"][str(samples)], flush=True)
    with open(check.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
