import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twodist import cli, edm, graphs, linalg, oracle, representations as reps
from twodist.edm import Configuration
from twodist.graphs import GRAPH6_MAX_N, cycle_graph, encode_graph6, parse_graph6


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: Paley graph P(13): i ~ j iff j - i is a nonzero square mod 13
PALEY13 = graphs.Graph.from_edges(13, [(i, j) for i in range(13) for j in range(i + 1, 13)
                                       if (j - i) % 13 in {1, 3, 4, 9, 10, 12}])


class TestAnalyze:
    def test_c5_json(self, capsys):
        code, out, _ = run(["analyze", "--g6", encode_graph6(cycle_graph(5))], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["tool"] == "twodist"
        assert doc["dim_e"] == 2 and doc["dim_s"] == 2 and doc["dim_j"] == 4
        assert doc["beta_l"] == pytest.approx((3 - math.sqrt(5)) / 2)

    def test_pretty_flag(self, capsys):
        code, out, _ = run(["analyze", "--g6", "DUW", "--pretty"], capsys)
        assert code == 0 and out.startswith("{\n")

    def test_degenerate_graph_reports_nulls(self, capsys):
        code, out, _ = run(["analyze", "--g6", "D~{"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["degenerate"] and doc["dim_e"] is None

    def test_edge_list_input(self, tmp_path, capsys):
        path = tmp_path / "c4.txt"
        path.write_text("4\n0 1\n1 2\n2 3\n0 3\n")
        code, out, _ = run(["analyze", "--edges", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["class"] == "complete_multipartite"

    @pytest.mark.parametrize("n", [99999999999, GRAPH6_MAX_N + 1])
    def test_order_beyond_graph6_exits_2(self, n, tmp_path, capsys):
        # rejected before any n x n allocation; the report could not name it
        path = tmp_path / "big.txt"
        path.write_text(f"{n}\n0 1\n")
        code, out, err = run(["analyze", "--edges", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: line 1: node count {n} exceeds {GRAPH6_MAX_N}, " \
                      "the largest graph6 order\n"

    def test_bad_graph6_exits_2(self, capsys):
        code, _, err = run(["analyze", "--g6", "~~~"], capsys)
        assert code == 2 and "error" in err

    def test_missing_file_exits_2(self, capsys):
        # a read failure names its path, as a write failure does
        code, out, err = run(["analyze", "--edges", "/nonexistent/g.txt"], capsys)
        assert code == 2 and out == ""
        assert err == "error: cannot read /nonexistent/g.txt: No such file or directory\n"

    def test_directory_exits_2(self, tmp_path, capsys):
        code, _, err = run(["analyze", "--edges", str(tmp_path)], capsys)
        assert code == 2 and err == f"error: cannot read {tmp_path}: Is a directory\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("g6,group", [("DUW", "(-0.5, multiplicity 4) merges eigenvalues "
                                                  "1.118e+00"),
                                          ("Dhc", "(-0.5, multiplicity 4) merges eigenvalues "
                                                  "1.118e+00"),
                                          ("E?Bw", "(-0.333333, multiplicity 5) merges "
                                                   "eigenvalues 1.333e+00")],
                             ids=["DUW", "Dhc", "E?Bw"])
    def test_huge_tolerance_prints_only_the_diagnostic(self, g6, group, capsys):
        # tol * max(1, |lambda|) overflows to an infinite clustering gap, which
        # merges every group; that overflow is intended and warns nothing
        code, out, err = run(["analyze", "--g6", g6, "--tol-eig", "1e308"], capsys)
        assert code == 3 and out == ""
        assert err == ("internal consistency diagnostic: extreme eigenvalue group of V.T A V "
                       f"{group} apart\n")

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"3\n0 1\n\xff\xfe\n")
        code, _, err = run(["analyze", "--edges", str(path)], capsys)
        assert code == 2 and "UTF-8" in err

    def test_long_graph6_matches_edges(self, tmp_path, capsys):
        # C_600 is past graph6's short form (n <= 62)
        path = tmp_path / "c600.txt"
        path.write_text("600\n" + "".join(f"{i} {(i + 1) % 600}\n" for i in range(600)))
        code, by_edges, _ = run(["analyze", "--edges", str(path)], capsys)
        assert code == 0
        g6 = json.loads(by_edges)["input_graph6"]
        assert g6.startswith("~")
        code, by_g6, _ = run(["analyze", "--g6", g6], capsys)
        assert code == 0 and json.loads(by_g6) == json.loads(by_edges)
        assert json.loads(by_g6)["dim_j"] == 599

    def test_tolerances_block(self, capsys):
        code, out, _ = run(["analyze", "--g6", "DUW", "--tol-eig", "1e-8"], capsys)
        assert code == 0
        assert json.loads(out)["tolerances"] == {"tol_eig": 1e-8}

    @pytest.mark.parametrize("argv", [
        ["analyze", "--g6", "Dug", "--tol-eig", "nan"],
        ["analyze", "--g6", "Dug", "--tol-eig", "-1"],
        ["analyze", "--g6", "Dug", "--tol-psd", "1e3"],
        ["analyze", "--g6", "Dug", "--tol-residual", "5"],
        ["embed", "--g6", "Dug", "--mode", "jspherical", "--out", "x.csv", "--tol-eig", "1e-9"],
        ["embed", "--g6", "Dug", "--mode", "euclidean", "--out", "x.csv", "--beta", "nan"],
        ["embed", "--g6", "Dug", "--mode", "euclidean", "--out", "x.csv", "--beta", "inf"],
        ["embed", "--g6", "Dug", "--mode", "bogus", "--out", "x.csv"],
    ])
    def test_bad_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("g6,tol,fragment", [
        ("Dug", "0.5", "extreme eigenvalue group of V.T A V"),
        ("DUW", "0.9", "top eigenvalue group of the complement"),
        ("Dug", "5", "extreme eigenvalue group of V.T A V"),
        ("Eft?", "0.1", "extreme eigenvalue group of V.T A V"),
        ("HG?@aQ?", "1e-2", "extreme eigenvalue group of V.T A V"),
    ])
    def test_inconsistent_answers_exit_3(self, g6, tol, fragment, capsys):
        # a clustering tolerance this coarse merges distinct eigenvalues into
        # an extreme group, which would otherwise give a wrong dim_e (3 for 4
        # on Eft?, 6 for 7 on HG?@aQ?)
        code, out, err = run(["analyze", "--g6", g6, "--tol-eig", tol], capsys)
        assert code == 3 and out == ""
        assert "internal consistency" in err and fragment in err


class TestEmbed:
    def read_config(self, path):
        with open(path, newline="") as fh:
            rows = [[float(x) for x in row] for row in csv.reader(fh)]
        return Configuration(np.array(rows))

    def test_euclidean_round_trip(self, tmp_path, capsys):
        out = tmp_path / "c5.csv"
        g6 = encode_graph6(cycle_graph(5))
        code, _, _ = run(["embed", "--g6", g6, "--mode", "euclidean",
                          "--beta", "2.0", "--out", str(out)], capsys)
        assert code == 0
        config = self.read_config(out)
        assert oracle.verify_two_distance(config, cycle_graph(5), 1.0, 2.0).passed
        sidecar = json.loads((tmp_path / "c5.csv.json").read_text())
        assert sidecar["mode"] == "euclidean" and sidecar["beta"] == 2.0

    @pytest.mark.parametrize("name,beta", [("c9", 0.7), ("bow_tie", 2.0), ("bow_tie", 3.5)])
    def test_euclidean_radius(self, name, beta, tmp_path, capsys, bow_tie):
        # the bow tie's upper endpoint beta_u = 3.5 is not spherical
        g = cycle_graph(9) if name == "c9" else bow_tie
        out = tmp_path / "x.csv"
        code, _, _ = run(["embed", "--g6", encode_graph6(g), "--mode", "euclidean",
                          "--beta", str(beta), "--out", str(out)], capsys)
        assert code == 0
        radius = json.loads((tmp_path / "x.csv.json").read_text())["radius"]
        info = edm.spherical_info(reps._edm_at(g, beta))
        if name == "bow_tie" and beta == 3.5:
            assert info is None and radius is None
        else:
            assert radius == pytest.approx(info.radius, abs=1e-9)

    def test_spherical_mode_decompositions(self, tmp_path, capsys, bow_tie, decompositions):
        # C9 is regular: its pass runs eigvalsh, as for analyze, and its
        # configuration an eigh for the points. The bow tie's pass runs eigh,
        # whose eigenvectors give the points
        for g, want in ((cycle_graph(9), ["eigvalsh", "eigh"]), (bow_tie, ["eigh"])):
            decompositions.clear()
            code, _, _ = run(["embed", "--g6", encode_graph6(g), "--mode", "spherical",
                              "--side", "lower", "--out", str(tmp_path / "x.csv")], capsys)
            assert code == 0 and decompositions == want

    def test_spherical_mode(self, tmp_path, capsys, bow_tie):
        out = tmp_path / "bt.csv"
        g6 = encode_graph6(bow_tie)
        code, _, _ = run(["embed", "--g6", g6, "--mode", "spherical",
                          "--side", "lower", "--out", str(out)], capsys)
        assert code == 0
        sidecar = json.loads((tmp_path / "bt.csv.json").read_text())
        assert sidecar["radius"] == pytest.approx(1 / math.sqrt(3), abs=1e-9)
        config = self.read_config(out)
        assert oracle.verify_two_distance(config, bow_tie, 1.0, 0.5).passed

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("name", [f"c{n}" for n in range(5, 41)] + ["paley13"])
    def test_spherical_mode_matches_analyze(self, name, side, tmp_path, capsys):
        # a regular graph's endpoints are all spherical, and both commands run
        # the same eigvalsh pass, so they print the same bits
        g = PALEY13 if name == "paley13" else cycle_graph(int(name[1:]))
        g6 = encode_graph6(g)
        _, out, _ = run(["analyze", "--g6", g6], capsys)
        doc = json.loads(out)
        csv_path = tmp_path / "x.csv"
        code, _, _ = run(["embed", "--g6", g6, "--mode", "spherical", "--side", side,
                          "--out", str(csv_path)], capsys)
        assert code == 0
        sidecar = json.loads((tmp_path / "x.csv.json").read_text())
        key = side[0]
        assert sidecar["beta"] == doc[f"beta_{key}"] and sidecar["radius"] == doc[f"rho_{key}"]
        config = self.read_config(csv_path)
        assert config.dim == g.n - 1 - doc["m_max" if side == "lower" else "m_min"]
        assert oracle.verify_two_distance(config, g, 1.0, sidecar["beta"]).passed

    def test_jspherical_mode(self, tmp_path, capsys, bow_tie):
        out = tmp_path / "btj.csv"
        code, _, _ = run(["embed", "--g6", encode_graph6(bow_tie),
                          "--mode", "jspherical", "--out", str(out)], capsys)
        assert code == 0
        config = self.read_config(out)
        assert np.allclose(np.sum(config.points ** 2, axis=1), 1.0, atol=1e-9)
        assert oracle.verify_two_distance(config, bow_tie, 2.0, 3.0).passed

    def test_euclidean_requires_beta(self, tmp_path, capsys):
        code, _, err = run(["embed", "--g6", "DUW", "--mode", "euclidean",
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2 and "--beta" in err

    def test_infeasible_beta_exits_4(self, tmp_path, capsys, bow_tie):
        code, _, _ = run(["embed", "--g6", encode_graph6(bow_tie), "--mode",
                          "euclidean", "--beta", "4.0",
                          "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 4

    @pytest.mark.parametrize("beta", ["1", "1.0", "0", "-2"])
    def test_excluded_beta_exits_4(self, beta, tmp_path, capsys):
        # beta = alpha = 1 and beta <= 0 are outside the representations sought
        code, _, err = run(["embed", "--g6", "Cr", "--mode", "euclidean", "--beta", beta,
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 4 and "beta must be positive" in err

    @pytest.mark.filterwarnings("error")
    def test_huge_beta_exits_4(self, tmp_path, capsys):
        # no intermediate of x may overflow: an infinite x would make the
        # sign test's cut infinite and let the negative entries through
        out = tmp_path / "x.csv"
        code, _, err = run(["embed", "--g6", "Dug", "--mode", "euclidean", "--beta", "1e308",
                            "--out", str(out)], capsys)
        assert code == 4 and not out.exists()
        assert err == "error: beta=1e+308 infeasible: projected Gram eigenvalue -2e+307 < 0\n"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_x_exits_4(self, tmp_path, capsys):
        # here x itself overflows, to -inf and +inf (beta_u = 1.433): an
        # infinite cut would count no entry negative, so the signs of
        # x/(beta/2) decide
        out = tmp_path / "x.csv"
        code, _, err = run(["embed", "--g6", "KnN]yZqzNtA|", "--mode", "euclidean",
                            "--beta", "1.7e308", "--out", str(out)], capsys)
        assert code == 4 and not out.exists()
        assert err == "error: beta=1.7e+308 infeasible: projected Gram eigenvalue -inf < 0\n"

    @pytest.mark.parametrize("beta,code", [("1.0000001", 4), ("1.00000005", 4),
                                           ("1.0000000999", 4), ("0.9999999", 4),
                                           ("1.0000002", 0), ("0.9999998", 0)])
    def test_beta_within_verify_tolerance_of_1(self, beta, code, tmp_path, capsys):
        # verification cannot tell squared distances 1e-7 apart, so such a
        # beta is excluded like beta = 1; just outside it the embedding verifies
        got, _, err = run(["embed", "--g6", "Dug", "--mode", "euclidean", "--beta", beta,
                           "--out", str(tmp_path / "x.csv")], capsys)
        assert got == code
        assert err == ("" if code == 0 else "error: beta must be positive and differ from "
                       "the first squared distance 1 by more than 1e-7\n")

    @pytest.mark.parametrize("beta,code", [("1e-12", 4), ("1e-8", 4), ("1e-7", 4), ("2e-7", 0)])
    def test_beta_within_verify_tolerance_of_0(self, beta, code, tmp_path, capsys):
        # K3,2's non-adjacent pairs coincide at such a beta, which
        # verification cannot tell from 0; just above it the embedding verifies
        out = tmp_path / "x.csv"
        got, _, err = run(["embed", "--g6", "DFw", "--mode", "euclidean", "--beta", beta,
                           "--out", str(out)], capsys)
        assert got == code and out.exists() == (code == 0)
        assert err == ("" if code == 0 else "error: beta must exceed 1e-7: verification cannot "
                       "tell a smaller second squared distance from 0\n")

    def test_nonspherical_endpoint_exits_4(self, tmp_path, capsys, bow_tie):
        code, _, err = run(["embed", "--g6", encode_graph6(bow_tie), "--mode",
                            "spherical", "--side", "upper",
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 4 and "not spherical" in err

    @pytest.mark.parametrize("g6,side", [("DwC", "upper"), ("D]o", "lower")],
                             ids=["cluster", "K23"])
    def test_absent_endpoint_exits_4(self, g6, side, tmp_path, capsys):
        # a cluster graph has no upper endpoint, a complete multipartite one
        # no lower endpoint
        out = tmp_path / "x.csv"
        code, _, err = run(["embed", "--g6", g6, "--mode", "spherical", "--side", side,
                            "--out", str(out)], capsys)
        assert code == 4 and not out.exists()
        assert err == f"error: {side} endpoint does not exist for this graph\n"

    @pytest.mark.parametrize("source", [["--g6", "~~~"], ["--edges", "/nonexistent/g.txt"]],
                             ids=["bad-graph6", "missing-file"])
    def test_unreadable_graph_exits_2(self, source, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, err = run(["embed", *source, "--mode", "jspherical", "--out", str(out)],
                           capsys)
        assert code == 2 and not out.exists()
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_failed_verification_exits_3(self, tmp_path, capsys, monkeypatch, bow_tie):
        real = reps.j_spherical

        def perturbed(g):
            js = real(g)
            points = js.config.points.copy()
            points[0, 0] += 1e-3
            return js._replace(config=Configuration(points))
        monkeypatch.setattr(reps, "j_spherical", perturbed)
        out = tmp_path / "x.csv"
        code, _, err = run(["embed", "--g6", encode_graph6(bow_tie), "--mode", "jspherical",
                            "--out", str(out)], capsys)
        assert code == 3 and not out.exists()
        assert err.startswith("error: configuration failed two-distance verification "
                              "(max deviation ")
        assert len(err.splitlines()) == 1

    @pytest.mark.filterwarnings("error")
    def test_huge_beta_failing_verification_warns_nothing(self, tmp_path, capsys):
        # K3 + K2 admits every beta > 1, but at 1e308 its configuration loses
        # the first distance to rounding and fails verification; the sidecar
        # radius is computed only for a verified configuration, so nothing
        # overflows on the way to the one stderr line. For K3 + K1 at 1.7e308
        # the diagonal of the pair distances overflows; verification never
        # reads it, and it warns nothing either
        out = tmp_path / "x.csv"
        for g6, beta in (("DwC", "1e308"), ("Cw", "1.7e308")):
            code, _, err = run(["embed", "--g6", g6, "--mode", "euclidean", "--beta", beta,
                                "--out", str(out)], capsys)
            assert code == 3 and not out.exists()
            assert err.startswith("error: configuration failed two-distance verification "
                                  "(max deviation ")
            assert len(err.splitlines()) == 1

    def test_internal_consistency_exits_3(self, tmp_path, capsys, bow_tie, monkeypatch):
        def fail(*args, **kwargs):
            raise edm.InternalConsistencyError("forced")
        monkeypatch.setattr(reps, "_radius2", fail)
        out = tmp_path / "x.csv"
        code, _, err = run(["embed", "--g6", encode_graph6(bow_tie), "--mode", "spherical",
                            "--side", "lower", "--out", str(out)], capsys)
        assert code == 3 and "internal consistency" in err
        assert not out.exists()

    def test_unwritable_out_exits_2(self, capsys):
        code, _, err = run(["embed", "--g6", "DqK", "--mode", "jspherical",
                            "--out", "/nonexistent/x.csv"], capsys)
        assert code == 2 and err.startswith("error: cannot write /nonexistent/x.csv")
        assert len(err.splitlines()) == 1

    def test_unwritable_sidecar_exits_2(self, tmp_path, capsys):
        # the sidecar path is a directory: name the sidecar, leave no CSV and
        # no temporary file behind, and leave an earlier CSV as it was
        out = tmp_path / "x.csv"
        (tmp_path / "x.csv.json").mkdir()
        for before in (None, b"0,1\r\n"):
            if before is not None:
                out.write_bytes(before)
            code, _, err = run(["embed", "--g6", "DqK", "--mode", "jspherical",
                                "--out", str(out)], capsys)
            assert code == 2 and err == f"error: cannot write {out}.json: Is a directory\n"
            assert (out.read_bytes() if out.exists() else None) == before
            assert sorted(p.name for p in tmp_path.iterdir()) == \
                ["x.csv", "x.csv.json"][before is None:]

    def test_unwritable_csv_keeps_old_sidecar(self, tmp_path, capsys):
        # the CSV path is a directory: every destination is checked before the
        # first move, so an earlier sidecar keeps its bytes
        out = tmp_path / "out.csv"
        out.mkdir()
        sidecar = tmp_path / "out.csv.json"
        sidecar.write_bytes(b'{"old": true}\n')
        code, _, err = run(["embed", "--g6", "Dug", "--mode", "jspherical", "--out", str(out)],
                           capsys)
        assert code == 2 and err == f"error: cannot write {out}: Is a directory\n"
        assert sidecar.read_bytes() == b'{"old": true}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.json"]

    def test_out_through_symlink(self, tmp_path, capsys):
        # the CSV goes to the file the link names; the link stays a link
        (tmp_path / "real.csv").write_bytes(b"")
        (tmp_path / "x.csv").symlink_to("real.csv")
        code, _, _ = run(["embed", "--g6", "DqK", "--mode", "jspherical",
                          "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 0 and (tmp_path / "x.csv").is_symlink()
        assert len((tmp_path / "real.csv").read_text().splitlines()) == 5

    def test_out_not_a_regular_file_exits_2(self, tmp_path, capsys):
        # a pipe (like a device such as /dev/null) is never replaced, nor
        # opened: the command writes nothing and does not block on it
        out = tmp_path / "x.csv"
        os.mkfifo(out)
        code, _, err = run(["embed", "--g6", "DqK", "--mode", "jspherical", "--out", str(out)],
                           capsys)
        assert code == 2 and err == f"error: cannot write {out}: not a regular file\n"
        assert not out.is_file() and out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]

    MODES = {"euclidean": ["--mode", "euclidean", "--beta", "2"],
             "spherical": ["--mode", "spherical"], "jspherical": ["--mode", "jspherical"]}

    @pytest.mark.parametrize("mode", list(MODES))
    def test_degenerate_exits_4(self, mode, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, err = run(["embed", "--g6", "D~{", *self.MODES[mode], "--out", str(out)],
                           capsys)
        assert code == 4
        assert err == "error: complete graph admits no two-distance representation\n"
        assert not out.exists()

    def test_degenerate_euclidean_without_beta_exits_2(self, tmp_path, capsys):
        # the usage check comes before the graph's class test
        code, _, err = run(["embed", "--g6", "D~{", "--mode", "euclidean",
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2 and err == "error: --beta required for euclidean mode\n"

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("g6", ["D~{", "DqK"])
    def test_one_class_test_per_mode(self, mode, g6, tmp_path, capsys, monkeypatch):
        # classify and the analysis pass both run graphs.class_stack
        calls, real = [], graphs.class_stack

        def counted(adj):
            calls.append(adj.shape)
            return real(adj)
        monkeypatch.setattr(graphs, "class_stack", counted)
        monkeypatch.setattr(reps, "class_stack", counted)
        run(["embed", "--g6", g6, *self.MODES[mode], "--out", str(tmp_path / "x.csv")], capsys)
        assert calls == [(1, 5, 5)]


class TestFailureTable:
    """A command that raises a class of ``cli._FAILURES`` exits with its code
    and one stderr line, and writes nothing else."""

    @pytest.mark.parametrize("cls,failure", list(cli._FAILURES.items()),
                             ids=[cls.__name__ for cls in cli._FAILURES])
    @pytest.mark.parametrize("command", ["analyze", "embed"])
    def test_exception_maps_to_its_code(self, cls, failure, command, tmp_path, capsys,
                                        monkeypatch):
        exc = cls(2.5, -0.25) if cls is reps.InfeasibleBetaError else cls("forced")

        def fail(*args, **kwargs):
            raise exc
        if command == "analyze":
            monkeypatch.setattr(reps, "analyze_graph", fail)
            argv = ["analyze", "--g6", "DqK"]
        else:
            monkeypatch.setattr(reps, "j_spherical", fail)
            argv = ["embed", "--g6", "DqK", "--mode", "jspherical",
                    "--out", str(tmp_path / "x.csv")]
        code, out, err = run(argv, capsys)
        assert (code, err) == (failure[0], f"{failure[1]}: {exc}\n")
        assert out == "" and not any(tmp_path.iterdir())

    def test_exception_without_message_names_its_class(self, capsys, monkeypatch):
        # numpy's allocation failure carries a message; a bare MemoryError has none
        def fail(*args, **kwargs):
            raise MemoryError()
        monkeypatch.setattr(reps, "analyze_graph", fail)
        assert run(["analyze", "--g6", "DqK"], capsys) == (cli.EXIT_PARSE, "", "error: MemoryError\n")


class TestSweep:
    def test_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code, _, _ = run(["sweep", "--n", "4", "--out", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["violation_count"] == 0
        assert doc["per_n"]["4"] == 64

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(["sweep", "--n", "3"], capsys)
        assert code == 0
        assert json.loads(out)["graphs_checked"] == 10

    def test_violations_exit_3(self, capsys, monkeypatch):
        summary = oracle.SweepSummary()
        summary.violations.append({"check": "dim_chain", "graph6": "Ch", "detail": "forced"})
        monkeypatch.setattr(oracle, "invariant_sweep", lambda *args, **kwargs: summary)
        code, out, _ = run(["sweep", "--n", "3"], capsys)
        assert code == 3
        assert json.loads(out)["violation_count"] == 1

    def test_unwritable_out_exits_2(self, capsys):
        code, out, err = run(["sweep", "--n", "3", "--out", "/nonexistent/x.json"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write /nonexistent/x.json")
        assert len(err.splitlines()) == 1

    def test_rejects_big_n(self, capsys):
        code, _, err = run(["sweep", "--n", "9"], capsys)
        assert code == 2 and "n_max too large" in err

    @pytest.mark.parametrize("n", ["0", "1", "-3"])
    def test_rejects_small_n(self, n, capsys):
        code, out, err = run(["sweep", "--n", n], capsys)
        assert code == 2 and out == "" and "n_max too small" in err

    @pytest.mark.parametrize("flag,value", [("--samples", "-4"), ("--seed", "-4"),
                                            ("--samples", str(10 ** 20)), ("--samples", "65537")],
                             ids=["--samples", "--seed", "--samples-1e20", "--samples-65537"])
    def test_rejects_bad_counts(self, flag, value, capsys, monkeypatch):
        # a negative count is a usage error; more samples than cli.MAX_SAMPLES
        # are refused in one line. Neither runs a sweep.
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")
        monkeypatch.setattr(oracle, "invariant_sweep", no_sweep)
        if value == "-4":
            with pytest.raises(SystemExit) as exc:
                cli.main(["sweep", "--n", "7", flag, value])
            assert exc.value.code == 2
            assert f"argument {flag}" in capsys.readouterr().err
        else:
            code, out, err = run(["sweep", "--n", "7", flag, value], capsys)
            assert (code, out) == (2, "")
            assert err == f"error: samples too large (must be 0..{cli.MAX_SAMPLES})\n"

    def test_samples_maximum_in_help(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--help"])
        assert f"0..{cli.MAX_SAMPLES}" in capsys.readouterr().out

    def test_n7_samples_both_orders(self, capsys):
        # any --n >= 7 samples orders 7 and 8; an odd count puts the extra
        # graph at order 7
        code, out, _ = run(["sweep", "--n", "7", "--samples", "3"], capsys)
        assert code == 0
        per_n = json.loads(out)["per_n"]
        assert per_n == {"2": 2, "3": 8, "4": 64, "5": 1024, "6": 32768, "7": 2, "8": 1}


class TestParserReuse:
    """One process builds the parser once and serves every command with it."""

    def commands(self, out, bow_tie):
        return [["analyze", "--g6", "DUW"],
                ["embed", "--g6", "DUW", "--mode", "euclidean", "--beta", "2.5", "--out", out],
                ["analyze", "--g6", "Dug", "--tol-eig", "nan"],  # usage error: exit 2
                ["analyze", "--g6", "DUW", "--pretty"],
                ["embed", "--g6", encode_graph6(bow_tie), "--mode", "spherical",
                 "--side", "lower", "--out", out],
                ["embed", "--g6", "DUW", "--mode", "jspherical", "--out", out],
                ["embed", "--g6", "DUW", "--mode", "euclidean", "--out", out]]  # exit 2

    def outcome(self, argv, out, capsys):
        """(exit code, stdout, stderr, CSV bytes, sidecar bytes) of one command."""
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        files = []
        for path in (out, out.with_name(out.name + ".json")):
            files.append(path.read_bytes() if path.exists() else None)
            path.unlink(missing_ok=True)
        return code, captured.out, captured.err, *files

    def test_repeated_calls_match_the_first(self, tmp_path, capsys, monkeypatch, bow_tie):
        monkeypatch.setattr(cli, "_parser", None)
        out = tmp_path / "x.csv"
        argvs = self.commands(str(out), bow_tie)
        first = [self.outcome(argv, out, capsys) for argv in argvs]
        assert [o[0] for o in first] == [0, 0, 2, 0, 0, 0, 2]
        assert all(o[3] is not None for o in first if o[0] == 0 and o[1] == "")
        for _ in range(2):
            assert [self.outcome(argv, out, capsys) for argv in argvs] == first

    def test_parser_built_once(self, tmp_path, capsys, monkeypatch, bow_tie):
        monkeypatch.setattr(cli, "_parser", None)
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        out = tmp_path / "x.csv"
        for argv in self.commands(str(out), bow_tie) * 2:
            self.outcome(argv, out, capsys)
        assert built == [1]

    def test_import_builds_nothing(self):
        code = "from twodist import cli; assert cli._parser is None"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], ["embed", "--help"],
                                      ["sweep", "--help"]], ids=["top", "analyze", "embed", "sweep"])
    def test_help_unchanged(self, argv, capsys):
        assert cli.main(["analyze", "--g6", "DUW"]) == 0  # the parser has served a command
        capsys.readouterr()
        texts = []
        for parse in (cli.main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and "usage: twodist" in texts[0]


class TestDispatch:
    """main hands an argv that names a command to that command's parser, with
    the top-level parser's outcome: namespace, stdout, stderr and exit code."""

    ARGV = [[], ["-h"], ["bogus", "--g6", "Dug"], ["anal", "--g6", "Dug"],
            ["analyze", "--g6", "Dug"], ["analyze", "--g6", "Dug", "extra"],
            ["embed", "--g6", "Dug", "--mode", "jspherical", "--out", "x.csv"],
            ["embed", "--g6", "Dug", "--mode", "jspherical", "--out", "x.csv", "extra", "-z"],
            ["sweep", "--n", "3"], ["sweep", "--n", "3", "extra"],
            ["--"], ["--", "analyze", "--g6", "Dug"], ["analyze", "--", "--g6", "Dug"],
            ["analyze", "--g6=Dug"], ["analyze", "--g6", "Dug", "--tol", "1e-8"],
            ["embed", "--g6", "Dug", "--mode", "bogus", "--out", "x.csv"],
            ["analyze", "--g6", "Dug", "--tol-eig", "nan"],
            ["embed", "--g6", "Dug", "--mode", "euclidean", "--beta", "-2.5", "--out", "x.csv"],
            ["analyze", "--g6", "Dug", "--edges", "g.txt"], ["sweep", "--n"],
            ["analyze", "--g6", "Dug", "-h"]]

    @pytest.fixture
    def recorded(self, monkeypatch):
        """The namespaces the commands receive: each records its own and
        returns 0 in a parser built afresh."""
        seen = []
        for name in ("cmd_analyze", "cmd_embed", "cmd_sweep"):
            monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)
        monkeypatch.setattr(cli, "_parser", None)
        return seen

    @pytest.mark.parametrize("argv", ARGV, ids=[" ".join(a) or "none" for a in ARGV])
    def test_main_parses_as_the_parser(self, argv, recorded, capsys):
        assert cli.main(["analyze", "--g6", "DUW"]) == 0  # the parser has served a command
        recorded.clear()
        outcomes = []
        for parse in (cli.main, cli.build_parser().parse_args):
            try:
                result = parse(list(argv))
            except SystemExit as exc:
                result = exc.code
            outcomes.append([result, *capsys.readouterr()])
        if isinstance(outcomes[1][0], argparse.Namespace):
            assert outcomes[0][0] == 0 and recorded == [outcomes[1][0]]
            outcomes[1][0] = 0
        assert outcomes[0] == outcomes[1]

    NON_ASCII = [["sweep", "--n", "３"], ["sweep", "--n", "7", "--samples", "1_0"],
                 ["sweep", "--n", "7", "--seed", "٣"],
                 ["analyze", "--g6", "Dug", "--tol-eig", "１e-9"],
                 ["embed", "--g6", "Dug", "--mode", "euclidean", "--out", "x.csv", "--beta", "２.5"]]

    @pytest.mark.parametrize("argv", NON_ASCII, ids=[" ".join(a[-2:]) for a in NON_ASCII])
    def test_numeric_flags_read_ascii_only(self, argv, recorded, capsys):
        # int() and float() also read non-ASCII digits and int() reads 1_0;
        # these flags read numbers as the graph parsers do, and no command runs
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2 and recorded == []
        assert f"argument {argv[-2]}: invalid" in capsys.readouterr().err

    def test_command_argv_parsed_once(self, monkeypatch, capsys):
        assert cli.main(["analyze", "--g6", "Dug"]) == 0
        parsed = []
        real = argparse.ArgumentParser.parse_known_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            lambda self, *a, **k: parsed.append(self.prog) or real(self, *a, **k))
        assert cli.main(["analyze", "--g6", "Dug"]) == 0
        assert parsed == ["twodist analyze"]


def _csv_reference(points: np.ndarray) -> str:
    """The CSV text of csv.writer with every value formatted by .17g."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    for row in points:
        writer.writerow([f"{val:.17g}" for val in row])
    return buf.getvalue()


class TestOutputText:
    """The one-write CSV, sidecar and JSON output against csv.writer and json.dump."""

    @pytest.mark.parametrize("name", ["40x39", "no-columns", "special"])
    def test_csv_matches_csv_writer(self, name, tmp_path, rng):
        points = {
            "40x39": rng.standard_normal((40, 39)) * 10.0 ** rng.integers(-12, 12, (40, 39)),
            "no-columns": np.zeros((5, 0)),
            "special": np.array([[np.nan, np.inf, -np.inf], [-0.0, 0.0, 5e-324],
                                 [1e-320, -2.2250738585072014e-308, 1.0 / 3.0]]),
        }[name]
        sidecar = {"mode": "euclidean", "alpha": 1.0, "beta": 2.5, "radius": None}
        path = tmp_path / "x.csv"
        cli._write_coordinates(str(path), Configuration(points), sidecar)
        assert path.read_bytes() == _csv_reference(points).encode("utf-8")
        want = io.StringIO()
        json.dump(sidecar, want, indent=2)
        assert (tmp_path / "x.csv.json").read_text(encoding="utf-8") == want.getvalue() + "\n"

    @pytest.mark.parametrize("pretty", [False, True])
    def test_analyze_json_matches_json_dump(self, pretty, capsys):
        argv = ["analyze", "--g6", "DUW"] + (["--pretty"] if pretty else [])
        assert cli.main(argv) == 0
        doc = cli._report_document(parse_graph6("DUW"), argparse.Namespace(tol_eig=linalg.EIG_TOL))
        want = io.StringIO()
        json.dump(doc, want, indent=2 if pretty else None)
        assert capsys.readouterr().out == want.getvalue() + "\n"


def test_no_scipy_at_runtime(tmp_path):
    # scipy is a test extra: analyze, every embed mode and the sweep never import it
    code = "\n".join([
        "import sys",
        "from twodist import cli",
        "out = sys.argv[2]",
        "assert cli.main(['analyze', '--g6', sys.argv[1]]) == 0",
        "for mode in (['spherical'], ['euclidean', '--beta', '2'], ['jspherical']):",
        "    assert cli.main(['embed', '--g6', sys.argv[1], '--mode', *mode, '--out', out]) == 0",
        "assert cli.main(['sweep', '--n', '4', '--out', out + '.json']) == 0",
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "assert not loaded, loaded"])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code, encode_graph6(cycle_graph(9)),
                           str(tmp_path / "x.csv")], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_analysis_does_not_load_the_oracle():
    # oracle (and its json) loads on first use: analyze_graph loads neither,
    # and twodist analyze does not load oracle
    code = "\n".join([
        "import sys",
        "from twodist import analyze_graph, parse_graph6",
        "analyze_graph(parse_graph6('Dug'))",
        "loaded = [m for m in ('twodist.oracle', 'json') if m in sys.modules]",
        "assert not loaded, loaded",
        "from twodist import cli",
        "assert cli.main(['analyze', '--g6', 'Dug']) == 0",
        "assert 'twodist.oracle' not in sys.modules"])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_graph_too_large_to_hold_exits_2(tmp_path):
    # a 60,000-node graph needs a 3.35 GiB adjacency matrix: in a 2 GiB
    # address space its allocation fails, and the command exits 2 with one
    # line, as other too-large inputs do, not with a traceback
    resource = pytest.importorskip("resource")
    edges = tmp_path / "big.txt"
    edges.write_text("60000\n0 1\n")
    limit = 2 << 30
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "twodist.cli", "analyze", "--edges", str(edges)],
                          env=env, capture_output=True, text=True,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == cli.EXIT_PARSE, proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
