"""Command-line interface and file formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdgsolve
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
from sdgsolve.generators import random_partial_ktree
from sdgsolve.oracle import brute_force_solve

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

    def test_gr_second_header_reports_line(self):
        with pytest.raises(GrParseError) as err:
            read_gr("p tw 3 1\n1 2\np tw 2 1\n")
        assert str(err.value) == "line 3: second header line 'p tw 2 1' (the first is line 1)"

    def test_gr_non_integer_edge_count_reports_line(self):
        with pytest.raises(GrParseError) as err:
            read_gr("c count\np tw 3 x\n1 2\n")
        assert str(err.value) == "line 2: non-integer edge count in 'p tw 3 x'"

    def test_gr_edge_count_mismatch_reports_header_line(self):
        with pytest.raises(GrParseError) as err:
            read_gr("p tw 3 5\n1 2\n")
        assert str(err.value) == "line 1: header declares 5 edges, the file has 1"
        with pytest.raises(GrParseError, match="line 1: header declares 0 edges, the file has 1"):
            read_gr("p tw 3 0\n1 2\n")

    @pytest.mark.parametrize("repeat", ["1 2", "2 1"])
    def test_gr_repeated_edge_reports_both_lines(self, repeat):
        with pytest.raises(GrParseError) as err:
            read_gr(f"p tw 3 3\n1 2\n2 3\n{repeat}\n")
        assert str(err.value) == f"line 4: edge ({repeat.replace(' ', ',')}) repeats the edge of line 2"
        # the headerless fallback rejects it too
        with pytest.raises(GrParseError, match="line 3: edge"):
            read_gr(f"1 2\n2 3\n{repeat}\n")

    @pytest.mark.parametrize("name", ["fig_a", "fig_b", "fig_c"])
    def test_data_files_declare_their_edge_counts(self, name):
        text = (DATA / f"{name}.gr").read_text()
        header = next(line.split() for line in text.splitlines() if line.startswith("p"))
        G = read_gr(text)
        assert (G.n, len(G.edges)) == (int(header[2]), int(header[3]))

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

    @pytest.mark.parametrize("cap", ["0", "-2"])
    def test_cap_below_one_rejected(self, cap, capsys):
        code = main(
            ["solve", "--graph", str(DATA / "fig_a.gr"), "--scores", "1", "--cap", cap]
        )
        assert code == 1
        assert f"got {cap}" in capsys.readouterr().err

    def test_cap_below_the_network_solves_with_a_dp(self, tmp_path, capsys):
        # the cap also bounds auto's brute-force range, so an 8-agent
        # network under --cap 5 goes to a DP instead of exiting 1
        G = random_partial_ktree(8, 2, 0)
        path = tmp_path / "tw2.gr"
        path.write_text(write_gr(G))
        code = main(
            ["solve", "--graph", str(path), "--scores", "1,0,-1", "--cap", "5", "--format", "json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["algorithm"] == "twdp" and report["optimal"]
        expect = brute_force_solve(ScoringVector((1, 0, -1)), G, "welfare")
        assert report["welfare"] == expect.welfare

    def test_size_limit_without_fptdp_errors(self, tmp_path, capsys):
        path = tmp_path / "tw2.gr"
        path.write_text(write_gr(random_partial_ktree(8, 2, 0)))
        argv = ["solve", "--graph", str(path), "--scores", "1", "--sz", "2", "--format", "json"]
        assert main(argv) == 1
        assert "size limit only drives the fptdp" in capsys.readouterr().err
        assert main(argv + ["--algo", "fptdp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["size_limited"] and max(map(len, report["outcome"])) <= 2

    def test_unsupported_combination_errors(self, tmp_path, capsys):
        # a decomposition drives only the treewidth DP
        td = tmp_path / "fig_a.td"
        td.write_text("s td 1 7 7\nb 1 1 2 3 4 5 6 7\n")
        code = main(
            [
                "solve",
                "--graph",
                str(DATA / "fig_a.gr"),
                "--scores",
                "1,0",
                "--td",
                str(td),
                "--algo",
                "vc",
            ]
        )
        assert code == 1
        assert "only drives the twdp" in capsys.readouterr().err

    def test_open_tail_with_td_runs_twdp(self, tmp_path, capsys):
        td = tmp_path / "fig_a.td"
        td.write_text("s td 1 7 7\nb 1 1 2 3 4 5 6 7\n")
        argv = ["solve", "--graph", str(DATA / "fig_a.gr"), "--scores", "2,-1", "--tail", "open",
                "--td", str(td), "--format", "json"]
        for mode in ("welfare", "ir", "ns"):
            assert main(argv + ["--mode", mode]) == 0
            report = json.loads(capsys.readouterr().out)
            expect = brute_force_solve(ScoringVector((2, -1), tail="open"), read_gr((DATA / "fig_a.gr").read_text()), mode)
            assert report["algorithm"] == "twdp", mode
            assert report["welfare"] == expect.welfare, mode

    @pytest.mark.parametrize("scores", ["1,,-1", ",1", "1,0,"])
    def test_scores_with_an_empty_entry_error(self, scores, capsys):
        code = main(["solve", "--graph", str(DATA / "fig_a.gr"), "--scores", scores])
        assert code == 1
        assert f"error: empty entry in scoring vector {scores!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("header,message", [
        ("s td 1 7 9", "vertex-count: decomposition declares 9 vertices, the network has 7"),
        ("s td 1 6 7", "line 2: bag 1 has 7 vertices, above the declared maximum 6"),
    ])
    def test_td_header_fields_are_checked(self, header, message, tmp_path, capsys):
        td = tmp_path / "fig_a.td"
        td.write_text(header + "\nb 1 1 2 3 4 5 6 7\n")
        code = main(["solve", "--graph", str(DATA / "fig_a.gr"), "--scores", "1,-3", "--td", str(td)])
        assert code == 1
        assert message in capsys.readouterr().err

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

    def test_open_tail_puts_twdp_against_the_others(self, tmp_path, capsys):
        (tmp_path / "fig_c.gr").write_text((DATA / "fig_c.gr").read_text())
        argv = ["bench", "--corpus", str(tmp_path), "--scores", "2,-1", "--tail", "open",
                "--modes", "welfare,ir,ns"]
        assert main(argv) == 0
        rows = [line.split()[:3] for line in capsys.readouterr().out.splitlines()]
        for mode in ("welfare", "ir", "ns"):
            assert ["fig_c.gr", mode, "twdp"] in rows, mode

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


def test_one_process_prints_what_fresh_processes_print(capsys):
    # main builds its parser once per process; solve, bounds and solve again
    # with other flags, in one process, print what three fresh ones print
    runs = [
        ["solve", "--graph", str(DATA / "fig_c.gr"), "--scores", "1,1,-1,-1,-1,-1", "--format", "json"],
        ["bounds", "--graph", str(DATA / "fig_a.gr"), "--scores", "1,-3"],
        ["solve", "--graph", str(DATA / "fig_c.gr"), "--scores", "1,1,-1,-1,-1,-1", "--mode", "ns", "--algo", "brute"],
    ]

    def steady(text):
        # the solve time differs from run to run
        return [line for line in text.splitlines() if not line.startswith("time:") and "elapsed_ms" not in line]

    env = dict(os.environ, PYTHONPATH=str(Path(sdgsolve.__file__).parents[1]))
    for argv in runs:
        code = main(argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "sdgsolve", *argv], capture_output=True, text=True, env=env, check=False
        )
        assert (code, steady(capsys.readouterr().out)) == (fresh.returncode, steady(fresh.stdout)), argv
