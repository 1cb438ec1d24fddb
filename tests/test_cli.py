"""Command-line interface and file formats."""

import json
from pathlib import Path

import pytest

from sdgsolve.cli import main
from sdgsolve.core import Outcome, ScoringVector, SocialNetwork
from sdgsolve.formats import (
    GrParseError,
    read_gr,
    read_outcome,
    report_from_json,
    report_to_json,
    result_report,
    write_gr,
    write_outcome,
)

DATA = Path(__file__).parent / "data"


class TestFormats:
    def test_gr_round_trip(self, fig_a):
        assert read_gr(write_gr(fig_a)) == fig_a

    def test_gr_headerless_fallback(self):
        G = read_gr("1 2\n2 3\n")
        assert G.n == 3 and G.edges == ((0, 1), (1, 2))

    def test_gr_bad_line_reports_number(self):
        with pytest.raises(ValueError) as err:
            read_gr("p tw 3 1\n1 x\n")
        assert "line 2" in str(err.value)

    def test_gr_self_loop_reports_line_and_file_id(self, tmp_path, capsys):
        with pytest.raises(GrParseError) as err:
            read_gr("p tw 3 2\n1 2\n2 2\n")
        assert str(err.value) == "line 3: self-loop at agent 2"
        path = tmp_path / "loop.gr"
        path.write_text("p tw 3 2\n1 2\n2 2\n")
        assert main(["solve", "--graph", str(path), "--scores", "1"]) == 1
        assert "line 3: self-loop at agent 2" in capsys.readouterr().err

    def test_gr_endpoint_above_count_reports_line(self):
        with pytest.raises(GrParseError) as err:
            read_gr("p tw 3 2\n1 2\nc note\n2 4\n")
        assert str(err.value) == "line 4: edge (2,4) exceeds declared vertex count 3"

    def test_gr_empty_header_reports_line(self):
        with pytest.raises(GrParseError) as err:
            read_gr("c empty\np tw 0 0\n")
        assert str(err.value) == "line 2: network needs at least one agent"

    def test_outcome_round_trip(self):
        o = Outcome.from_blocks([[0, 2], [1]])
        assert read_outcome(write_outcome(o), 3) == o

    def test_outcome_missing_agent(self):
        with pytest.raises(ValueError) as err:
            read_outcome("1 2\n", 3)
        assert "agent 3" in str(err.value)

    def test_outcome_overlap_named(self):
        with pytest.raises(ValueError) as err:
            read_outcome("1 2\n2 3\n", 3)
        assert "agent 2 appears in two coalitions" in str(err.value)

    def test_report_json_round_trip(self, fig_a):
        from sdgsolve.dispatch import solve

        s = ScoringVector((1, 0, -1))
        result = solve(s, fig_a)
        report = result_report(s, fig_a, result, 1.0, "fig_a.gr")
        assert report_from_json(report_to_json(report)) == report


class TestSolveCommand:
    def test_fig_a_mild(self, capsys):
        code = main(
            [
                "solve",
                "--graph",
                str(DATA / "fig_a.gr"),
                "--scores",
                "1,0,-1",
                "--mode",
                "welfare",
                "--algo",
                "auto",
                "--format",
                "json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["welfare"] == 18

    def test_fig_a_sharp(self, capsys):
        code = main(
            ["solve", "--graph", str(DATA / "fig_a.gr"), "--scores", "1,-3", "--format", "json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["welfare"] == 14

    def test_single_vertex(self, tmp_path, capsys):
        path = tmp_path / "one.gr"
        path.write_text("p tw 1 0\n")
        code = main(["solve", "--graph", str(path), "--scores", "1", "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["welfare"] == 0
        assert report["outcome"] == [[1]]

    def test_unsupported_combination_errors(self, capsys):
        code = main(
            [
                "solve",
                "--graph",
                str(DATA / "fig_a.gr"),
                "--scores",
                "1,0",
                "--tail",
                "open",
                "--algo",
                "twdp",
            ]
        )
        assert code == 1
        assert "closed tails" in capsys.readouterr().err

    def test_solve_with_td(self, tmp_path, capsys):
        td = tmp_path / "fig_a.td"
        # one bag with everything: valid, width 6
        td.write_text("s td 1 7 7\nb 1 1 2 3 4 5 6 7\n")
        code = main(
            [
                "solve",
                "--graph",
                str(DATA / "fig_a.gr"),
                "--scores",
                "1,-3",
                "--td",
                str(td),
                "--format",
                "json",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["welfare"] == 14


class TestCheckCommand:
    def test_fig_b_grand(self, tmp_path, capsys):
        out = tmp_path / "grand.out"
        out.write_text(" ".join(str(i) for i in range(1, 11)) + "\n")
        code = main(
            [
                "check",
                "--graph",
                str(DATA / "fig_b.gr"),
                "--scores",
                "1,1,-1,-1,-1,-1",
                "--mode",
                "ir",
                "--outcome",
                str(out),
                "--format",
                "json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["welfare"] == 62
        assert report["individually_rational"] is False

    def test_fig_c_stable_pair(self, tmp_path, capsys):
        out = tmp_path / "pair.out"
        out.write_text("3 10\n1 2 4 5 6 7 8 9\n")
        code = main(
            [
                "check",
                "--graph",
                str(DATA / "fig_c.gr"),
                "--scores",
                "1,1,-1,-1,-1,-1",
                "--mode",
                "ns",
                "--outcome",
                str(out),
                "--format",
                "json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nash_stable"] is True
        assert report["welfare"] == 46

    def test_disconnected_coalition_reports_minus_infinity(self, tmp_path, capsys):
        # agents 6 and 7 of fig_a are not adjacent: their coalition is
        # disconnected, so both score minus infinity and so does the welfare
        out = tmp_path / "split.out"
        out.write_text("6 7\n1 2 3 4 5\n")
        code = main(
            [
                "check",
                "--graph",
                str(DATA / "fig_a.gr"),
                "--scores",
                "1,0,-1",
                "--mode",
                "ir",
                "--outcome",
                str(out),
                "--format",
                "json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["welfare"] is None
        assert report["coalition_diameters"] == [2, None]
        assert report["deviation"]["gain"] is None
        assert "agent 5 utility -inf < 0" in report["bound_violations"]

    def test_malformed_outcome(self, tmp_path, capsys):
        out = tmp_path / "bad.out"
        out.write_text("1 2\n2 3\n")
        code = main(
            [
                "check",
                "--graph",
                str(DATA / "fig_a.gr"),
                "--scores",
                "1",
                "--outcome",
                str(out),
            ]
        )
        assert code == 1


class TestGenCommand:
    def test_random_tw(self, tmp_path, capsys):
        code = main(
            ["gen", "random-tw", "--n", "9", "--tw", "2", "--seed", "7", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        files = list(tmp_path.glob("*.gr"))
        assert len(files) == 1
        from sdgsolve.treedecomp import exact_treewidth

        G = read_gr(files[0].read_text())
        assert G.n == 9
        assert exact_treewidth(G) <= 2

    def test_random_degree(self, tmp_path, capsys):
        code = main(
            [
                "gen",
                "random-degree",
                "--n",
                "10",
                "--max-deg",
                "3",
                "--seed",
                "1",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        G = read_gr(next(tmp_path.glob("*.gr")).read_text())
        assert G.max_degree() <= 3

    def test_hard(self, tmp_path, capsys):
        formula = tmp_path / "f.cnf"
        formula.write_text("c nae3sat\np cnf 2 1\n1 -2 2 0\n")
        code = main(["gen", "hard", "--formula", str(formula), "--out-dir", str(tmp_path)])
        assert code == 0
        meta = json.loads((tmp_path / "f.meta.json").read_text())
        G = read_gr((tmp_path / "f.gr").read_text())
        assert G.n == 9  # 3 triangles: 2 variables + 1 clause
        assert meta["target_welfare"] == 3 * 3 * 1 * 2


class TestBenchCommand:
    def test_small_corpus_agrees(self, tmp_path, capsys):
        for seed in (1, 2):
            code = main(
                [
                    "gen",
                    "random-tw",
                    "--n",
                    "6",
                    "--tw",
                    "2",
                    "--seed",
                    str(seed),
                    "--out-dir",
                    str(tmp_path),
                ]
            )
            assert code == 0
        code = main(
            [
                "bench",
                "--corpus",
                str(tmp_path),
                "--scores",
                "1,-3",
                "--modes",
                "welfare,ns",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "brute" in out and "twdp" in out

    def test_empty_corpus(self, tmp_path, capsys):
        assert main(["bench", "--corpus", str(tmp_path), "--scores", "1"]) == 0

    def test_disagreement_exits_3_and_dumps_instance(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "tiny.gr").write_text("p tw 2 1\n1 2\n")
        import sdgsolve.cli as cli
        from sdgsolve.core import Outcome, SolveResult

        def fake_solve(s, G, mode="welfare", algo="auto", **kwargs):
            welfare = {"brute": 2, "twdp": 3}.get(algo, 2)
            return SolveResult(Outcome.from_blocks([[0, 1]]), welfare, mode, True, algo)

        monkeypatch.setattr(cli, "solve", fake_solve)
        code = main(
            ["bench", "--corpus", str(tmp_path), "--scores", "1", "--algos", "brute,twdp"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "DISAGREEMENT" in err and "p tw 2 1" in err


class TestInfeasibleExitCode:
    def test_ns_without_stable_outcome_exits_2(self, capsys, monkeypatch):
        import sdgsolve.cli as cli

        monkeypatch.setattr(cli, "solve", lambda *a, **k: None)
        code = main(
            [
                "solve",
                "--graph",
                str(DATA / "fig_a.gr"),
                "--scores",
                "1",
                "--mode",
                "ns",
            ]
        )
        assert code == 2
        assert "no stable outcome" in capsys.readouterr().out


class TestBoundsCommand:
    def test_fig_a(self, capsys):
        code = main(
            ["bounds", "--graph", str(DATA / "fig_a.gr"), "--scores", "1,-3", "--format", "json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["degree_size_bound"] == 8
        assert report["treewidth_size_bound"] == 2 * 2 * 3 + 1
