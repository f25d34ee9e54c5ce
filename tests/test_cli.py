import argparse
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest

import weakiasi.graph
from weakiasi import cli, named_graph
from weakiasi.cli import UsageError, main
from weakiasi.io import dump_edge_list, dump_graph_json

SRC = Path(weakiasi.graph.__file__).resolve().parents[1]


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    # SystemExit for a clean exit with a nonzero code; any other exception escaped the CLI
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run_cli(*args):
    """Run one command line in-process, as the console script does, capturing both streams."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(args), prog_name="weakiasi")
            exit_code = 0
        except SystemExit as exc:
            exit_code = exc.code or 0
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception = 1, exc
    return Result(exit_code, out.getvalue(), err.getvalue(), exception)


def payload(result):
    return json.loads(result.stdout)


class TestVersion:
    def test_version_from_source_matches_pyproject(self):
        # the tests run the package from source, where it has no installed metadata
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
        result = run_cli("--version")
        assert result.exit_code == 0
        assert declared == "0.1.0"
        assert result.output.split()[-1] == declared


class TestSparingCommand:
    def test_petersen(self):
        result = run_cli("sparing", "--named", "petersen")
        assert result.exit_code == 0
        report = payload(result)
        assert report["results"]["phi"] == 3
        assert report["results"]["bipartization_number"] == 3
        assert report["results"]["mismatch"] is False
        assert report["graph"] == {
            "n": 10, "m": 15, "min_degree": 3, "max_degree": 3, "avg_degree": 3.0,
        }
        assert all(v >= 0 for v in report["timings_ms"].values())

    def test_timings_split_solve_into_sparing_and_max_cut(self):
        timings = payload(run_cli("sparing", "--named", "dodecahedron"))["timings_ms"]
        assert set(timings) == {"load", "sparing", "max_cut", "solve", "total"}
        # each value is rounded to a microsecond on its own
        assert abs(timings["solve"] - (timings["sparing"] + timings["max_cut"])) <= 0.002
        assert timings["load"] + timings["solve"] <= timings["total"] + 0.002

    def test_cycle_family(self):
        # the label is the normalised name, whatever case the name was typed in
        result = run_cli("sparing", "--named", "CYCLE", "--param", "5")
        report = payload(result)
        assert report["results"]["phi"] == 1
        assert report["input"] == "cycle(5)"
        assert result.stderr.startswith("cycle(5): phi=1 ")

    def test_empty_graph_file(self, tmp_path):
        # the first solver call of the run, on an emptied store
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n")
        result = run_cli("sparing", "--graph", str(path))
        assert (result.exit_code, result.stderr) == (0, "empty.txt: phi=0 bipartization=0 mismatch=false\n")
        assert payload(result)["results"]["phi"] == 0

    def test_durer_mismatch_flagged(self):
        result = run_cli("sparing", "--named", " durer")
        report = payload(result)
        assert report["input"] == "durer"
        assert result.stderr.startswith("durer: phi=6 ")
        assert report["results"]["phi"] == 6
        assert report["results"]["bipartization_number"] == 4
        assert report["results"]["mismatch"] is True

    def test_labeling_flag_and_dot_output(self, tmp_path):
        dot_file = tmp_path / "out.dot"
        result = run_cli("sparing", "--named", "cycle", "--param", "5",
                         "--labeling", "--dot", str(dot_file))
        assert result.exit_code == 0
        report = payload(result)
        assert "labeling" in report["results"]
        dot = dot_file.read_text()
        assert 'class="mono"' in dot and 'class="plain"' in dot

    def test_graph_file_input(self, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text(dump_edge_list(named_graph("cycle", 4)))
        report = payload(run_cli("sparing", "--graph", str(path)))
        assert report["results"]["phi"] == 0

    def test_report_is_sorted_json_indented_by_two(self):
        for args in (
            ("named",),
            ("sparing", "--named", "cycle", "--param", "4"),
            ("check-theorems", "--named", "petersen"),
        ):
            out = run_cli(*args).stdout
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", args

    def test_requires_exactly_one_source(self):
        assert run_cli("sparing").exit_code != 0
        assert run_cli("sparing", "--named", "petersen", "--graph", "x").exit_code != 0

    def test_unknown_name_fails(self):
        result = run_cli("sparing", "--named", "heawood")
        assert result.exit_code != 0

    def test_limit_error_names_bound(self, monkeypatch):
        result = run_cli("sparing", "--named", "cycle", "--param", "40")
        assert result.exit_code != 0
        assert "32" in result.output

        # a family member above the limit is refused before any edge is built
        def no_build(*args, **kwargs):
            raise AssertionError("build_graph called")

        monkeypatch.setattr(weakiasi.graph, "build_graph", no_build)
        for args in (
            ("sparing", "--named", "complete", "--param", "1000"),
            ("check-theorems", "--named", "complete", "--param", "1000"),
            ("oracle", "--named", "complete", "--param", "1000"),
            ("sparing", "--named", "star", "--param", "32"),
        ):
            result = run_cli(*args)
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit), args
            assert "Error:" in result.output and "at most 32 vertices" in result.output, args

    def test_unwritable_dot_path_is_input_error_without_traceback(self, tmp_path):
        dot_file = tmp_path / "missing-dir" / "out.dot"
        result = run_cli("sparing", "--named", "petersen", "--dot", str(dot_file))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error:" in result.output and str(dot_file) in result.output
        assert "Traceback" not in result.output

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1\nx y\n")
        result = run_cli("sparing", "--graph", str(path))
        assert result.exit_code != 0
        assert "line 3" in result.output

        # every command that reads a graph file reports it as one clean error line
        labeling_file = tmp_path / "lab.json"
        labeling_file.write_text(json.dumps({"vertex_labels": {"0": [0]}}))
        for args in (
            ("sparing", "--graph", str(path)),
            ("check-theorems", "--graph", str(path)),
            ("oracle", "--graph", str(path)),
            ("verify", "--graph", str(path), "--labeling", str(labeling_file)),
        ):
            result = run_cli(*args)
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit), args
            assert "Error:" in result.output and "line 3" in result.output, args
            assert "Traceback" not in result.output, args


class TestUsage:
    """Exit code 2, and what the dispatcher promises an in-process caller."""

    def test_graph_path_that_is_a_directory_is_a_usage_error(self, tmp_path):
        for args in (
            ("sparing", "--graph", str(tmp_path)),
            ("check-theorems", "--graph", str(tmp_path)),
            ("oracle", "--graph", str(tmp_path)),
        ):
            result = run_cli(*args)
            assert result.exit_code == 2, args
            assert "--graph" in result.stderr and "is a directory" in result.stderr, args
            assert result.stdout == "", args

    def test_missing_input_file_is_a_usage_error(self, tmp_path):
        graph_file = tmp_path / "c4.json"
        graph_file.write_text(dump_graph_json(named_graph("cycle", 4)))
        missing = str(tmp_path / "missing.json")
        for args in (
            ("sparing", "--graph", missing),
            ("verify", "--graph", missing, "--labeling", str(graph_file)),
            ("verify", "--graph", str(graph_file), "--labeling", missing),
            ("verify", "--graph", str(graph_file), "--labeling", str(tmp_path)),
        ):
            result = run_cli(*args)
            assert result.exit_code == 2, args
            assert "usage: weakiasi" in result.stderr, args

    def test_dot_path_that_is_a_directory_is_a_usage_error(self, tmp_path):
        result = run_cli("sparing", "--named", "petersen", "--dot", str(tmp_path))
        assert result.exit_code == 2
        assert "--dot" in result.stderr and "is a directory" in result.stderr
        assert result.stdout == ""

    def test_option_prefix_is_not_accepted(self):
        result = run_cli("sparing", "--named", "petersen", "--label")
        assert result.exit_code == 2
        assert "--label" in result.stderr

    def test_unknown_option_is_named_before_a_missing_required_one(self):
        for args in (("sparing", "--nam", "petersen"), ("verify", "--grap", "g.json")):
            result = run_cli(*args)
            assert result.exit_code == 2, args
            assert f"unrecognized arguments: {args[1]} {args[2]}" in result.stderr, args
        # without an unknown option the missing one is still reported
        result = run_cli("sparing", "--param", "5")
        assert result.exit_code == 2
        assert "(--named NAME | --graph FILE)" in result.stderr
        assert "one of the arguments --named --graph is required" in result.stderr
        # the unknown option comes with the command's usage line, the required group still required
        usage = result.stderr[: result.stderr.index("weakiasi sparing: error:")]
        assert usage.startswith("usage: weakiasi sparing [-h] (--named NAME | --graph FILE) ")
        unknown = run_cli("sparing", "--nam", "petersen").stderr
        assert unknown == f"{usage}weakiasi sparing: error: unrecognized arguments: --nam petersen\n"

    def test_words_before_a_misplaced_command_are_the_unrecognized_ones(self):
        # the words after the command are not read, valid or not
        top = "usage: weakiasi [-h] [--version] COMMAND ...\n"
        for args, unknown in (
            (("-x", "sparing", "--named", "petersen"), "-x"),
            (("-x", "sparing", "--nam", "petersen"), "-x"),
            (("-x", "sparing", "-h"), "-x"),
            (("-x", "-y", "named"), "-x -y"),
        ):
            result = run_cli(*args)
            assert (result.exit_code, result.stdout) == (2, ""), args
            assert result.stderr == f"{top}weakiasi: error: unrecognized arguments: {unknown}\n", args

    def test_a_command_line_that_names_a_command_builds_one_parser(self, monkeypatch):
        built = []

        class Counted(cli._Parser):
            def __init__(self, **kwargs):
                built.append(kwargs["prog"])
                super().__init__(**kwargs)

        monkeypatch.setattr(cli, "_Parser", Counted)
        for args in (
            ("named", "--json-indent", "0"),
            ("sparing", "--named", "petersen"),
            ("sparing", "--nam", "petersen"),
            ("verify", "--grap", "g.json"),
            ("check-theorems", "--named", "petersen", "--json-indent", "17"),
        ):
            built.clear()
            run_cli(*args)
            assert built == [f"weakiasi {args[0]}"], args

    def test_help_lists_every_command_with_its_help(self):
        for flag in ("--help", "-h"):
            result = run_cli(flag)
            assert (result.exit_code, result.stderr) == (0, ""), flag
            listed = " ".join(result.stdout.split())
            assert listed.startswith("usage: weakiasi [-h] [--version] COMMAND ..."), flag
            for name, command in main.commands.items():
                assert f" {name} {command.help}" in listed, (flag, name)

    def test_param_with_graph_file_is_a_usage_error(self, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text(dump_edge_list(named_graph("cycle", 4)))
        result = run_cli("sparing", "--graph", str(path), "--param", "4")
        assert result.exit_code == 2
        assert "--param only applies to --named families" in result.stderr

    def test_json_indent_option_is_a_usage_error(self, monkeypatch):
        # the option is gone, so it is an unknown argument, and no command may run
        def no_run(**params):
            raise AssertionError("command ran")

        for command in main.commands.values():
            monkeypatch.setattr(command, "callback", no_run)
        for args in (["named"], ["sparing", "--named", "petersen"], ["check-theorems", "--named", "petersen"]):
            for indent in ("0", "1000000000"):
                result = run_cli(*args, "--json-indent", indent)
                assert (result.exit_code, result.stdout) == (2, ""), args
                assert result.stderr.endswith(f"error: unrecognized arguments: --json-indent {indent}\n"), args

    def test_missing_command_is_a_usage_error(self, monkeypatch):
        for args in ((), ("cover",), ("--", "named")):
            result = run_cli(*args)
            assert (result.exit_code, result.stdout) == (2, ""), args
            assert isinstance(result.exception, SystemExit), args
            assert result.stderr.startswith("usage: weakiasi [-h] [--version] COMMAND ...\n"), args
            assert "Traceback" not in result.stderr, args
        # a line that does not start with a command runs none, even where argparse takes `-- named` for one
        monkeypatch.setattr(cli._Parser, "parse_args", lambda self, args=None: argparse.Namespace())
        result = run_cli("--", "named")
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.endswith("weakiasi: error: the command must come first\n")

    def test_in_process_failures_raise_exceptions_not_system_exit(self, tmp_path):
        bad_lines = (
            (["sparing"], UsageError),
            (["sparing", "--named", "petersen", "--threads", "2"], UsageError),
            (["sparing", "--graph", str(tmp_path)], UsageError),
            (["sparing", "--named", "heawood"], weakiasi.UnknownNameError),
            (["sparing", "--named", "cycle", "--param", "40"], weakiasi.TooLargeError),
        )
        for args, kind in bad_lines:
            with pytest.raises(kind), redirect_stderr(io.StringIO()):
                main.main(args=args, prog_name="weakiasi", standalone_mode=False)

    def test_dispatch_looks_the_callback_up_at_call_time(self, monkeypatch):
        calls = []
        monkeypatch.setattr(main.commands["named"], "callback", lambda **params: calls.append(params))
        assert main.main(args=["named"], standalone_mode=False) is None
        assert calls == [{}]


class TestCheckTheoremsCommand:
    def test_grotzsch_reports_all_checkers(self):
        result = run_cli("check-theorems", "--named", "grotzsch")
        assert result.exit_code == 0
        report = payload(result)
        reports = report["results"]["reports"]
        assert len(reports) == 6
        names = [r["theorem"] for r in reports]
        assert "bipartization-equals-sparing" in names
        summary = report["results"]["summary"]
        assert summary["holds"] + summary["fails"] + summary["not-applicable"] == 6

    def test_failing_relation_is_data_not_error(self):
        # complete(4) fails the chromatic-class relation; exit stays 0
        result = run_cli("check-theorems", "--named", "complete", "--param", "4")
        assert result.exit_code == 0
        report = payload(result)
        assert report["results"]["summary"]["fails"] >= 1

    def test_threads_option_is_a_usage_error(self):
        # as is any unknown option, named in the message
        for args in (("check-theorems", "--named", "frucht", "--threads", "2"), ("named", "--threads", "2")):
            result = run_cli(*args)
            assert result.exit_code == 2, args
            assert "--threads" in result.output, args


class TestNamedCommand:
    def test_catalog(self):
        result = run_cli("named")
        assert result.exit_code == 0
        catalog = payload(result)
        assert [entry["name"] for entry in catalog["named"]] == [
            "petersen", "frucht", "grotzsch", "durer", "dodecahedron",
        ]
        assert len(catalog["families"]) == 4
        petersen = catalog["named"][0]
        assert (petersen["vertices"], petersen["edges"]) == (10, 15)

    def test_closed_stdout_is_not_an_input_error(self):
        # as in `weakiasi named | true`: the reader is gone before the report is written
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "weakiasi.cli", "named"],
                cwd=SRC, stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


class TestOracleCommand:
    def test_small_cycle(self):
        report = payload(run_cli("oracle", "--named", "cycle", "--param", "5"))
        assert report["results"]["agree"] is True
        assert report["results"]["oracle_phi"] == 1

    def test_limit(self):
        result = run_cli("oracle", "--named", "petersen")
        assert result.exit_code != 0
        assert "7" in result.output


class TestVerifyCommand:
    def test_broken_labeling_reports_witness(self, tmp_path):
        graph_file = tmp_path / "c4.json"
        graph_file.write_text(dump_graph_json(named_graph("cycle", 4)))
        labeling_file = tmp_path / "lab.json"
        labeling_file.write_text(json.dumps(
            {"vertex_labels": {"0": [0, 1], "1": [2, 3], "2": [7], "3": [9]}}
        ))
        result = run_cli("verify", "--graph", str(graph_file), "--labeling", str(labeling_file))
        assert result.exit_code == 0
        report = payload(result)
        assert report["results"]["weak"] is False
        assert report["results"]["weak_violation"] == [0, 1]

    def test_malformed_label_is_input_error_without_traceback(self, tmp_path):
        graph_file = tmp_path / "c4.json"
        graph_file.write_text(dump_graph_json(named_graph("cycle", 4)))
        labeling_file = tmp_path / "lab.json"
        labeling_file.write_text(json.dumps({"vertex_labels": {"0": 5}}))
        result = run_cli("verify", "--graph", str(graph_file), "--labeling", str(labeling_file))
        # an uncaught exception also exits 1 under CliRunner; a clean error is a SystemExit
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "list of integers" in result.output

    def test_label_on_vertex_outside_graph_is_input_error(self, tmp_path):
        graph_file = tmp_path / "c4.json"
        graph_file.write_text(dump_graph_json(named_graph("cycle", 4)))
        labeling_file = tmp_path / "lab.json"
        labeling_file.write_text(json.dumps(
            {"vertex_labels": {"0": [0], "1": [1], "2": [2], "3": [3], "9": [4]}}
        ))
        result = run_cli("verify", "--graph", str(graph_file), "--labeling", str(labeling_file))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error:" in result.output and "vertex 9" in result.output

    def test_hostile_label_sizes_are_input_error(self, tmp_path):
        graph_file = tmp_path / "k2.json"
        graph_file.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
        labeling_file = tmp_path / "lab.json"
        labeling_file.write_text(json.dumps(
            {"vertex_labels": {"0": list(range(0, 6000, 2)), "1": list(range(1, 6000, 2))}}
        ))
        result = run_cli("verify", "--graph", str(graph_file), "--labeling", str(labeling_file))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert "Error:" in result.stderr and "9000000 additions" in result.stderr

    def test_graph_above_the_vertex_bound_is_input_error(self, tmp_path):
        # a perfect matching on 2**14 + 2 vertices is refused before its adjacency is built
        n = weakiasi.graph.GRAPH_VERTEX_LIMIT + 2
        graph_file = tmp_path / "matching.txt"
        graph_file.write_text(f"{n} {n // 2}\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(n // 2)))
        labeling_file = tmp_path / "lab.json"
        labeling_file.write_text(json.dumps({"vertex_labels": {"0": [0], "1": [1]}}))
        result = run_cli("verify", "--graph", str(graph_file), "--labeling", str(labeling_file))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert f"Error: graph supports at most 16384 vertices, got {n}" in result.stderr

    def test_missing_label_is_input_error(self, tmp_path):
        graph_file = tmp_path / "c4.json"
        graph_file.write_text(dump_graph_json(named_graph("cycle", 4)))
        labeling_file = tmp_path / "lab.json"
        labeling_file.write_text(json.dumps({"vertex_labels": {"0": [0]}}))
        result = run_cli("verify", "--graph", str(graph_file), "--labeling", str(labeling_file))
        assert result.exit_code != 0
