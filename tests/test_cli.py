import json

from click.testing import CliRunner

from weakiasi import named_graph
from weakiasi.cli import main
from weakiasi.io import dump_edge_list, dump_graph_json


def run_cli(*args):
    return CliRunner().invoke(main, list(args))


def payload(result):
    return json.loads(result.stdout)


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

    def test_cycle_family(self):
        report = payload(run_cli("sparing", "--named", "cycle", "--param", "5"))
        assert report["results"]["phi"] == 1

    def test_durer_mismatch_flagged(self):
        report = payload(run_cli("sparing", "--named", "durer"))
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

    def test_json_indent_zero_is_compact(self):
        result = run_cli("sparing", "--named", "cycle", "--param", "4", "--json-indent", "0")
        assert result.exit_code == 0
        assert len(result.stdout.strip().splitlines()) == 1

    def test_requires_exactly_one_source(self):
        assert run_cli("sparing").exit_code != 0
        assert run_cli("sparing", "--named", "petersen", "--graph", "x").exit_code != 0

    def test_unknown_name_fails(self):
        result = run_cli("sparing", "--named", "heawood")
        assert result.exit_code != 0

    def test_limit_error_names_bound(self):
        result = run_cli("sparing", "--named", "cycle", "--param", "40")
        assert result.exit_code != 0
        assert "32" in result.output

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1\nx y\n")
        result = run_cli("sparing", "--graph", str(path))
        assert result.exit_code != 0
        assert "line 3" in result.output


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
        result = run_cli("check-theorems", "--named", "frucht", "--threads", "2")
        assert result.exit_code == 2
        assert "--threads" in result.output


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

    def test_missing_label_is_input_error(self, tmp_path):
        graph_file = tmp_path / "c4.json"
        graph_file.write_text(dump_graph_json(named_graph("cycle", 4)))
        labeling_file = tmp_path / "lab.json"
        labeling_file.write_text(json.dumps({"vertex_labels": {"0": [0]}}))
        result = run_cli("verify", "--graph", str(graph_file), "--labeling", str(labeling_file))
        assert result.exit_code != 0
