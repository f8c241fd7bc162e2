import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from feyngen.algebra import Monomial, format_weight
from feyngen import cli, elimination
from feyngen.cli import _sorted_graphs, main
from feyngen.evaluation import FLOAT_TOLERANCE, load_model
from feyngen.graphs import OrderedGraph
from feyngen.hopf import GenOptions, omega, sigma_recursive
from feyngen.records import graph_from_dict, graph_to_dict, graphs_to_json
from feyngen.recursion import GraphSum, omega_classes
from feyngen import recursion

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def phi3_model_file(tmp_path):
    doc = {"labels": ["x"], "propagator": {"x,x": "1/2"}, "vertex": {"3": "3/8"}}
    path = tmp_path / "phi3.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def free_model_file(tmp_path):
    doc = {
        "labels": ["x", "y"],
        "propagator": {"x,x": "1", "y,y": "1", "x,y": "1/2"},
        "vertex": {},
    }
    path = tmp_path / "free.json"
    path.write_text(json.dumps(doc))
    return str(path)


TWO_LABEL_PROPAGATOR = {"a,a": "2", "a,b": "1/2", "b,b": "1"}
TWO_LABEL_VERTEX = {"1": "1/5", "3": "1/2", "4": "2/7"}

#: The float twin of two_label_model_file, its inverse written out.
TWO_LABEL_FLOAT = {
    "labels": ["a", "b"],
    "propagator": {key: float(Fraction(x)) for key, x in TWO_LABEL_PROPAGATOR.items()},
    "inverse_propagator": {"a,a": 4 / 7, "a,b": -2 / 7, "b,b": 8 / 7},
    "vertex": {key: float(Fraction(x)) for key, x in TWO_LABEL_VERTEX.items()},
}


@pytest.fixture
def two_label_model_file(tmp_path):
    doc = {"labels": ["a", "b"], "propagator": TWO_LABEL_PROPAGATOR, "vertex": TWO_LABEL_VERTEX}
    path = tmp_path / "two_label.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def two_label_twin_model_file(tmp_path):
    # The multiset twin of two_label_model_file: every multiset of a, b up to
    # degree 10 (the largest valence plus labels that the evaluate runs below
    # reach) has its degree's value, zeros written out.  Same values, but a
    # multiset model evaluates them by elimination.
    vertex = {
        ",".join("a" * i + "b" * (d - i)): TWO_LABEL_VERTEX.get(str(d), "0")
        for d in range(1, 11)
        for i in range(d + 1)
    }
    doc = {"labels": ["a", "b"], "propagator": TWO_LABEL_PROPAGATOR, "vertex": vertex}
    path = tmp_path / "two_label_twin.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestGenerate:
    def test_single_self_loop(self, capsys):
        assert main(["generate", "--loops", "1", "--vertices", "1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["1/2  v=1  edges: (1,1)  externals: -"]

    def test_tree_two_point_json(self, capsys):
        code = main(
            ["generate", "--loops", "0", "--vertices", "2", "--externals", "x,y",
             "--format", "json"]
        )
        assert code == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 2
        assert all(doc["weight"] == "1/1" for doc in docs)

    def test_dot_output(self, capsys):
        assert main(["generate", "--loops", "2", "--vertices", "2", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.count("graph g") == 4
        assert "// weight 1/12" in out

    def test_deterministic_output(self, capsys):
        args = ["generate", "--loops", "0-2", "--vertices", "1-3", "--externals", "x"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_min_valence_filters_and_bounds_vertices(self, capsys):
        code = main(
            ["generate", "--loops", "1", "--min-valence", "3", "--externals", "x,y"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # bound is (2 + 2 - 2)/1 = 2 vertices; every line is a compliant graph
        assert out
        for line in out.splitlines():
            assert "v=1" in line or "v=2" in line

    def test_json_output_bytes_are_pinned(self, capsys):
        args = ["generate", "--loops", "0-2", "--vertices", "1-3", "--externals", "x0,x1",
                "--format", "json"]
        assert main(args) == 0
        out = capsys.readouterr().out.encode()
        assert len(out) == 32_696
        assert hashlib.sha256(out).hexdigest() == (
            "b2c05787c454bef3ebe82298c9a3fbfffbc7e68f4b4f0b2b13812e755e533277"
        )

    @pytest.mark.parametrize(
        "args, size, digest",
        [
            (["--loops", "0-1", "--vertices", "5", "--externals", "x1,x2"], 111_969,
             "b1c1eb736292bf411b4e31006652df661ce3d5684d41a66bcbf63311df4eb8f6"),
            (["--loops", "0-2", "--vertices", "5"], 36_978,
             "a72bff895c49072eecfdaf86c4b2bb2d3c112ac267263bcc69ec1358ed9a8109"),
        ],
        ids=["labelled", "vacuum"],
    )
    def test_five_vertex_json_bytes_are_pinned(self, args, size, digest, capsys):
        assert main(["generate", *args, "--format", "json"]) == 0
        out = capsys.readouterr().out.encode()
        assert len(out) == size
        assert hashlib.sha256(out).hexdigest() == digest

    def test_usage_errors(self, phi3_model_file, capsys):
        assert main(["generate", "--loops", "1"]) == 2
        assert main(["generate"]) == 2
        assert main(["nonsense"]) == 2
        assert main(["generate", "--loops", "2-1", "--vertices", "1"]) == 2
        assert main(["generate", "--loops", "1", "--vertices", "3-2"]) == 2
        for ranges in (["--loops", "2-1", "--vertices", "1"],
                       ["--loops", "1", "--vertices", "3-2"]):
            assert main(["evaluate", "--model", phi3_model_file, *ranges]) == 2
        assert "reversed range" in capsys.readouterr().err
        # An empty part of --externals is an error; only the empty string means vacuum graphs.
        for text in ("a,,b", " "):
            assert main(["generate", "--loops", "0", "--vertices", "1", "--externals", text]) == 2
            assert main(["evaluate", "--model", phi3_model_file, "--loops", "0",
                         "--vertices", "1", "--externals", text]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "empty external label" in captured.err
        # A --loops top above --max-loops is refused before any limit is
        # checked or cell built; --max-loops 0 is a bound like any other.
        for bounds in (["--loops", "2", "--vertices", "1-3", "--max-loops", "1"],
                       ["--loops", "0-6", "--max-loops", "0"]):
            recursion.clear_cache()
            assert main(["generate", *bounds, "--externals", "a,b", "--min-valence", "3"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "max_loops" in captured.err
            assert not recursion._CELLS
        run = ["generate", "--loops", "0", "--externals", "a,b,c", "--min-valence", "3"]
        assert main(run) == 0
        alone = capsys.readouterr().out
        assert alone
        assert main([*run, "--max-loops", "0"]) == 0
        assert capsys.readouterr().out == alone

    @pytest.mark.parametrize("loops, max_loops", [("0-2", "4"), ("0-1", "3")])
    def test_max_loops_only_bounds_the_loops(self, loops, max_loops, capsys):
        # A --max-loops above the top of --loops changes neither the bytes nor
        # the cells built: the default vertex range and the vacuum budgets are
        # those of the top of --loops.  Bounded by --max-loops 4, the 0-2 run
        # would reach the 9-edge cell (2, 8) and be refused.
        run = ["generate", "--loops", loops, "--externals", "a,b", "--min-valence", "3"]
        outputs, cells = [], []
        try:
            for args in (run, [*run, "--max-loops", max_loops]):
                recursion.clear_cache()
                assert main(args) == 0
                outputs.append(capsys.readouterr().out)
                cells.append(len(recursion._CELLS))
        finally:
            recursion.clear_cache()
        assert outputs[0] and outputs[1] == outputs[0]
        assert cells[1] <= cells[0]

    @pytest.mark.parametrize("command", ["generate", "evaluate"])
    @pytest.mark.parametrize("loops, vertices, bad", [
        ("-1", "1", "-1"),
        ("1", "1-", "1-"),
        ("a", "1", "a"),
    ], ids=["negative", "open", "not-a-number"])
    def test_invalid_range_names_the_text_and_the_form(
        self, command, loops, vertices, bad, phi3_model_file, capsys
    ):
        model = ["--model", phi3_model_file] if command == "evaluate" else []
        assert main([command, *model, "--loops", loops, "--vertices", vertices]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"invalid range {bad!r}" in captured.err
        assert "expected N or A-B with 0 <= A <= B" in captured.err

    def test_resource_limit(self, capsys):
        code = main(["generate", "--loops", "9", "--vertices", "1"])
        assert code == 3

    def test_placement_limit_refuses_before_placing(self, capsys):
        # 387 vacuum classes of (3, 5) times 5^6 placements of six labels.
        recursion.clear_cache()
        recursion.reset_stats()
        try:
            assert main(["generate", "--loops", "3", "--vertices", "5",
                         "--externals", "a,b,c,d,e,f"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "6046875" in captured.err and "limit" in captured.err
            assert recursion.placement_count() == 0
        finally:
            recursion.clear_cache()

    @pytest.mark.parametrize("args, placements", [
        (["--loops", "0-2", "--vertices", "1-4", "--externals", "x1,x2"], 895),
        (["--loops", "0-2", "--externals", "a,b", "--min-valence", "3"], 54),
        (["--loops", "1", "--externals", "a,b,c,d", "--min-valence", "3"], 184),
        (["--loops", "4", "--vertices", "1-5", "--min-valence", "3"], 94),
        (["--loops", "0-2", "--vertices", "1-4"], 0),
    ], ids=["all-placements", "covering", "covering-four-labels", "vacuum", "vacuum-valence-0"])
    def test_placement_limit_counts_the_placements_made(
        self, args, placements, monkeypatch, capsys
    ):
        # The run's count is exact: one below it is refused, at it the run
        # makes exactly that many placements (a vacuum class takes the empty
        # one when it has no deficit; at valence 0 a vacuum run returns its
        # memoized cells as they are and makes none).
        recursion.clear_cache()
        try:
            monkeypatch.setattr(cli, "GENERATION_PLACEMENT_LIMIT", placements - 1)
            assert main(["generate", *args]) == 3
            assert capsys.readouterr().out == ""
            monkeypatch.setattr(cli, "GENERATION_PLACEMENT_LIMIT", placements)
            recursion.clear_cache()
            recursion.reset_stats()
            assert main(["generate", *args]) == 0
            assert capsys.readouterr().out
            assert recursion.placement_count() == placements
        finally:
            recursion.clear_cache()

    @pytest.mark.parametrize(
        "args, size, digest",
        [
            (["--loops", "2", "--externals", "a,b,c,d"], 236_954,
             "bb2df6e0864d52c62f262f9cd031b9183805598de1a927fbacb8a7480beb96b3"),
            (["--loops", "3", "--externals", "a,b"], 38_889,
             "bea39c45e288accb1d2d89af7eeda5a01a086763ce101aa80b8b480a2523ac19"),
            (["--loops", "3", "--externals", "a", "--vertices", "1-5"], 4_352,
             "e2c19a261448d324f04049c75da8ba5d18a0617965d8f3438db86a31b883a82e"),
        ],
        ids=["four-labels", "three-loops", "one-label-pruned-vacuum"],
    )
    def test_min_valence_bytes_are_pinned(self, args, size, digest, capsys):
        # The last run reads its vacuum cells at l = 3 at budget 1.
        assert main(["generate", *args, "--min-valence", "3"]) == 0
        out = capsys.readouterr().out.encode()
        assert len(out) == size
        assert hashlib.sha256(out).hexdigest() == digest

    def test_min_valence_memoizes_only_vacuum_cells(self, capsys):
        # The gen-pruned benchmark command: its vacuum cells, pruned at
        # budget 2 + 2(2 - l) against valence 3, take 266 split terms where
        # the unpruned cells of the generate --loops 0-2 --vertices 1-4 run
        # take 335.
        recursion.clear_cache()
        recursion.reset_stats()
        try:
            assert main(["generate", "--loops", "0-2", "--externals", "a,b",
                         "--min-valence", "3"]) == 0
            assert capsys.readouterr().out
            assert recursion._CELLS
            assert all(not g.externals for cell in recursion._CELLS.values()
                       for g, _ in cell.items())
            assert recursion.split_term_count() == 266
        finally:
            recursion.clear_cache()


@pytest.mark.parametrize("workload", ["gen-table", "gen-pruned", "eval-2label"])
def test_benchmark_replay_is_correct(workload):
    # The benchmark's traced replay of each workload builds ordered cells
    # (under GenOptions and --max-loops for gen-pruned); its output must stay
    # the command's.
    proc = subprocess.run([sys.executable, str(ROOT / "benchmark" / "run.py"),
                           "--workload", workload, "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def assert_written_as_json_dumps(text: str, graphs) -> None:
    """text is what json.dumps writes for the graph_to_dict records, and reads back as them."""
    records = [graph_to_dict(g, w) for g, w in graphs]
    assert text == json.dumps(records, sort_keys=True, indent=2) + "\n"
    assert json.loads(text) == records


#: Labels json.dumps must escape: a quote, a backslash, a control character
#: and non-ASCII text.
AWKWARD_LABELS = ('a"b', "c\\d", "e\x07f", "\u00e9\u03c8")


class TestJsonWriter:
    def test_gen_table_matches_json_dumps(self, capsys):
        args = ["generate", "--loops", "0-2", "--vertices", "1-4", "--externals", "x1,x2",
                "--format", "json"]
        assert main(args) == 0
        out = capsys.readouterr().out
        cells = [_sorted_graphs(omega_classes(l, v, Monomial(("x1", "x2"))))
                 for l in range(3) for v in range(1, 5)]
        for graphs in cells:
            assert_written_as_json_dumps(graphs_to_json(graphs), graphs)
        graphs = [item for cell in cells for item in cell]
        assert len(graphs) == 650
        assert_written_as_json_dumps(out, graphs)

    @pytest.mark.parametrize(
        "graphs",
        [[], [(OrderedGraph(1), Fraction(1))], [(OrderedGraph(1), None)],
         [(OrderedGraph(2, ((1, 2),)), None), (OrderedGraph(1, (), {"x": 1}), Fraction(-3, 4))]],
        ids=["empty", "bare-graph", "bare-graph-no-weight", "mixed-weights"],
    )
    def test_edge_cases_match_json_dumps(self, graphs):
        assert_written_as_json_dumps(graphs_to_json(graphs), graphs)

    def test_generate_escapes_labels_as_json_dumps(self, capsys):
        externals = Monomial(AWKWARD_LABELS)
        args = ["generate", "--loops", "0-1", "--vertices", "1-2",
                "--externals", ",".join(AWKWARD_LABELS), "--format", "json"]
        assert main(args) == 0
        out = capsys.readouterr().out
        graphs = [item for l in range(2) for v in range(1, 3)
                  for item in _sorted_graphs(omega_classes(l, v, externals))]
        assert_written_as_json_dumps(out, graphs)
        assert "\\u00e9" in out and '\\"' in out and "\\u0007" in out

    def test_export_escapes_labels_as_json_dumps(self, tmp_path, capsys):
        graphs = [(OrderedGraph(2, ((1, 2),), {lab: 1 + i % 2 for i, lab in
                                                 enumerate(AWKWARD_LABELS)}), Fraction(1, 2)),
                  (OrderedGraph(1, (), {'a"b': 1}), Fraction(1))]
        src = tmp_path / "graphs.json"
        src.write_text(json.dumps([graph_to_dict(g, w) for g, w in graphs]))
        assert main(["export", "--input", str(src), "--format", "json"]) == 0
        assert_written_as_json_dumps(capsys.readouterr().out, graphs)


class TestVerify:
    def test_all_suites_pass(self, capsys):
        assert main(["verify", "--max-edges", "2"]) == 0
        out = capsys.readouterr().out
        assert "all suites passed" in out

    def test_output_bytes_are_pinned(self, capsys):
        assert main(["verify", "--max-edges", "2"]) == 0
        out = capsys.readouterr().out.encode()
        assert len(out) == 1386
        assert hashlib.sha256(out).hexdigest() == (
            "dba58a383a1ef3a4b36043dcb2fed6ee02ba40db76f0c59f4e4382515e4199dd"
        )

    def test_single_suite(self, capsys):
        assert main(["verify", "--max-edges", "3", "--suite", "alt-recursion"]) == 0

    def test_negative_grid_is_a_usage_error(self, capsys):
        # A negative grid compares nothing; it must not report a pass.
        assert main(["verify", "--max-edges", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-edges" in captured.err

    @pytest.mark.parametrize("suite", ["alt-recursion", "all"])
    def test_grid_without_an_alt_recursion_cell_is_a_usage_error(self, suite, capsys):
        # The alternative recursion compares cells from one edge on, so a
        # zero-edge grid would report a pass having compared nothing there.
        assert main(["verify", "--max-edges", "0", "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "alt-recursion" in captured.err
        assert main(["verify", "--max-edges", "0", "--suite", "graph-oracle"]) == 0

    @pytest.mark.parametrize(
        "suite, max_edges",
        [("graph-oracle", 6), ("all", 6), ("alt-recursion", 9), ("sigma", 9)],
    )
    def test_grid_beyond_a_limit_is_refused_before_any_cell(self, suite, max_edges, capsys):
        # The brute-force oracle keeps its own edge limit (5); every suite
        # generates cells up to the grid size, bounded by the cell limit (8).
        assert main(["verify", "--max-edges", str(max_edges), "--suite", suite]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "limit" in captured.err

    def test_memo_keeps_no_placed_cell(self, capsys):
        # The graph-oracle suite and a labelled generate run place labels on
        # the merged vacuum cells; every merged cell memoized is vacuum.
        for argv in (["verify", "--max-edges", "4", "--suite", "graph-oracle"],
                     ["generate", "--loops", "0-2", "--vertices", "1-4", "--externals", "x1,x2"]):
            recursion.clear_cache()
            try:
                assert main(argv) == 0
                assert capsys.readouterr().out
                merged = [cell for key, cell in recursion._CELLS.items() if key[0]]
                assert merged and all(not g.externals for cell in merged
                                      for g, _ in cell.items()), argv
            finally:
                recursion.clear_cache()

    def test_memo_holds_vacuum_graphs_only(self, capsys):
        # Labels enter only by placement: after labelled and pruned ordered
        # cells and the alternative recursion's labelled cells, no memoized
        # graph carries a label.
        recursion.clear_cache()
        try:
            m = Monomial.of("a", "b")
            assert omega(1, 3, m) and omega(2, 3, m, GenOptions(2, 2))
            assert main(["verify", "--max-edges", "3", "--suite", "alt-recursion"]) == 0
            assert capsys.readouterr().out
            assert {key[3] for key in recursion._CELLS} == {0, 3}
            assert all(not g.externals for cell in recursion._CELLS.values()
                       for g, _ in cell.items())
        finally:
            recursion.clear_cache()

    def test_corrupted_cache_detected(self, capsys):
        omega_classes(1, 1)  # populate the cell the graph-oracle suite reads
        key = (True, 1, 1, 0, 0)  # (merged, l, v, m, b)
        recursion._CELLS[key] = recursion._CELLS[key].scaled(Fraction(2))
        try:
            assert main(["verify", "--max-edges", "2", "--suite", "graph-oracle"]) == 1
            assert "MISMATCH" in capsys.readouterr().out
        finally:
            recursion.clear_cache()  # the corrupted cell and the cells built from it


class TestEvaluate:
    def test_phi3_vacuum(self, phi3_model_file, capsys):
        code = main(
            ["evaluate", "--model", phi3_model_file, "--loops", "2", "--vertices", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # f3 = 3/8, g = 1/2 -> lam = 3; (5/24)*9*(1/8) = 15/64
        assert "sigma[l=2,v=2](1) = 15/64" in out

    def test_propagator_sector(self, free_model_file, capsys):
        code = main(
            ["evaluate", "--model", free_model_file, "--loops", "0", "--vertices", "0",
             "--externals", "x,y"]
        )
        assert code == 0
        assert "1/2" in capsys.readouterr().out

    def test_resource_limit(self, phi3_model_file, capsys):
        # l + v - 1 = 9 edges, one above the cell limit; refused before any work.
        code = main(["evaluate", "--model", phi3_model_file, "--loops", "9", "--vertices", "1"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "limit" in captured.err

    def test_elimination_limit_refuses_before_eliminating(
        self, two_label_twin_model_file, monkeypatch, capsys
    ):
        # Five labels on up to five vertices: the 523 classes of the vacuum
        # cells (3, 1..5), each eliminated with 2^5 states of the labels left
        # in a multiset model.
        made = []
        monkeypatch.setattr(elimination, "_eliminate", lambda *args: made.append(args))
        args = ["evaluate", "--model", two_label_twin_model_file, "--loops", "3",
                "--vertices", "1-5", "--externals", "a,b,c,d,e"]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not made
        assert "16736" in captured.err and "limit" in captured.err

    def test_degree_model_plans_no_elimination(
        self, two_label_model_file, two_label_twin_model_file, monkeypatch, capsys
    ):
        # Five labels on up to five vertices, with no elimination allowed: the
        # degree model makes none and runs; its multiset twin is refused
        # before any work.
        made = []
        eliminate = elimination._eliminate
        monkeypatch.setattr(elimination, "_eliminate",
                            lambda *a: made.append(a) or eliminate(*a))
        monkeypatch.setattr(cli, "EVALUATION_ELIMINATION_LIMIT", 0)
        args = ["--loops", "2", "--vertices", "1-5", "--externals", "a,b,c,d,e"]
        assert main(["evaluate", "--model", two_label_model_file, *args]) == 0
        assert capsys.readouterr().out and not made
        assert main(["evaluate", "--model", two_label_twin_model_file, *args]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not made
        assert "limit of 0" in captured.err

    def test_degree_model_builds_no_vacuum_cell(
        self, two_label_model_file, two_label_twin_model_file, capsys
    ):
        # A degree model's grades read the profile cells: the whole 8-edge
        # range runs with the recursion's memo left empty.  Its multiset twin
        # eliminates on the vacuum class cells and fills it.
        recursion.clear_cache()
        try:
            args = ["--loops", "0-2", "--vertices", "0-7", "--externals", "a,b"]
            assert main(["evaluate", "--model", two_label_model_file, *args]) == 0
            assert capsys.readouterr().out and not recursion._CELLS
            args = ["--loops", "0-1", "--vertices", "1-2", "--externals", "a,b"]
            assert main(["evaluate", "--model", two_label_twin_model_file, *args]) == 0
            assert capsys.readouterr().out and recursion._CELLS
        finally:
            recursion.clear_cache()

    @pytest.mark.parametrize("args, classes, states", [
        (["--loops", "3", "--vertices", "1-3", "--externals", "a,b"], 1 + 6 + 25, 2 * 2),
        (["--loops", "1", "--vertices", "0-3", "--externals", "a,a,b"], 1 + 2 + 4, 3 * 2),
    ], ids=["eval-2label", "repeated-label"])
    def test_elimination_limit_counts_the_eliminations_made(
        self, args, classes, states, two_label_twin_model_file, monkeypatch, capsys
    ):
        # The count is exact in a model that eliminates: classes times label
        # states.  One below it the run is refused, at it the run goes ahead
        # and makes one elimination per vacuum class (none at v = 0).
        made = []
        eliminate = elimination._eliminate
        monkeypatch.setattr(elimination, "_eliminate",
                            lambda *a: made.append(a) or eliminate(*a))
        args = ["evaluate", "--model", two_label_twin_model_file, *args]
        monkeypatch.setattr(cli, "EVALUATION_ELIMINATION_LIMIT", classes * states - 1)
        assert main(args) == 3
        assert capsys.readouterr().out == "" and not made
        monkeypatch.setattr(cli, "EVALUATION_ELIMINATION_LIMIT", classes * states)
        assert main(args) == 0
        assert capsys.readouterr().out
        assert len(made) == classes

    @pytest.mark.parametrize("args", [
        ["--loops", "3", "--vertices", "1-3", "--externals", "a,b"],
        ["--loops", "0-2", "--vertices", "1-3", "--externals", "a,b"],
        ["--loops", "0-1", "--vertices", "1-5", "--externals", "a,b,a,b"],
    ], ids=["eval-2label", "pinned", "4-point"])
    def test_degree_model_prints_what_its_multiset_twin_does(
        self, args, two_label_model_file, two_label_twin_model_file, monkeypatch, capsys
    ):
        # The degree model's closed form against the twin's elimination.
        made = []
        eliminate = elimination._eliminate
        monkeypatch.setattr(elimination, "_eliminate",
                            lambda *a: made.append(a) or eliminate(*a))
        assert main(["evaluate", "--model", two_label_model_file, *args]) == 0
        degree_out = capsys.readouterr().out
        assert not made
        assert main(["evaluate", "--model", two_label_twin_model_file, *args]) == 0
        assert capsys.readouterr().out == degree_out
        assert made

    def test_float_degree_model_runs_in_closed_form(self, two_label_model_file, tmp_path, capsys):
        # The float twin of two_label_model_file.  Six labels on up to six
        # vertices would be 28,608 (vacuum class, label state) pairs to
        # eliminate, above the limit; a degree model of any number type plans
        # none and prints the exact model's grades.
        path = tmp_path / "two_label_float.json"
        path.write_text(json.dumps(TWO_LABEL_FLOAT))
        args = ["--loops", "2", "--vertices", "1-6", "--externals", "a,b,c,d,e,f"]
        assert main(["evaluate", "--model", two_label_model_file, *args]) == 0
        exact = [line.split(" = ") for line in capsys.readouterr().out.splitlines()]
        assert main(["evaluate", "--model", str(path), *args]) == 0
        got = [line.split(" = ") for line in capsys.readouterr().out.splitlines()]
        assert [grade for grade, _ in got] == [grade for grade, _ in exact]
        for (grade, value), (_, want) in zip(got, exact):
            assert math.isclose(float(value), Fraction(want), rel_tol=FLOAT_TOLERANCE), grade

    def test_float_twins_print_every_grade_as_a_float(self, tmp_path, capsys):
        # The float twin of two_label_model_file and its multiset twin (every
        # multiset up to degree 10 written out, zeros included).  Two grades
        # are zero in both, the vertex-free one at l = 1 and (0, 1), where
        # every term vanishes; they print as 0.0, as the other grades print
        # floats.
        multiset = {
            ",".join("a" * i + "b" * (d - i)): float(Fraction(TWO_LABEL_VERTEX.get(str(d), "0")))
            for d in range(1, 11)
            for i in range(d + 1)
        }
        for name, vertex in (("degree", TWO_LABEL_FLOAT["vertex"]), ("multiset", multiset)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**TWO_LABEL_FLOAT, "vertex": vertex}))
            args = ["--loops", "0-1", "--vertices", "0-2", "--externals", "a,b"]
            assert main(["evaluate", "--model", str(path), *args]) == 0
            values = [line.split(" = ")[1] for line in capsys.readouterr().out.splitlines()]
            assert len(values) == 8, name
            assert all(repr(float(value)) == value for value in values), (name, values)
            assert values.count("0.0") == 2, (name, values)

    def test_output_bytes_are_pinned(self, two_label_model_file, capsys):
        args = ["evaluate", "--model", two_label_model_file, "--loops", "0-2",
                "--vertices", "1-3", "--externals", "a,b"]
        assert main(args) == 0
        out = capsys.readouterr().out.encode()
        assert len(out) == 348
        assert hashlib.sha256(out).hexdigest() == (
            "d52ce185b1d1d191044aabc4edf1dac8a8f057578bd17134bfa9107f7fb62e72"
        )

    def test_zero_vertex_output_bytes_are_pinned(self, capsys):
        # The grades from v = 0 on, the vertex-free propagator grade included.
        args = ["evaluate", "--model", str(ROOT / "benchmark" / "two_label_model.json"),
                "--loops", "0-2", "--vertices", "0-3", "--externals", "a,b"]
        assert main(args) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == (
            "a323fa1083f78320317065b03070b2f6fe04e0265bf04ee5d059f516400a3f9e"
        )

    def test_repeated_external_labels(self, phi3_model_file, capsys):
        args = ["evaluate", "--model", phi3_model_file, "--loops", "0-1",
                "--vertices", "0-2", "--externals", "x,x"]
        assert main(args) == 0
        model = load_model(phi3_model_file)
        xx = Monomial.of("x", "x")
        expected = []
        for l in (0, 1):
            grades = [model.propagator[("x", "x")] if l == 0 else Fraction(0)]
            grades += [sigma_recursive(model, l, v, xx) for v in (1, 2)]
            expected += [f"sigma[l={l},v={v}](x*x) = {format_weight(value)}"
                         for v, value in enumerate(grades)]
            expected.append(f"sigma[l={l}](x*x) = {format_weight(sum(grades))}")
        assert capsys.readouterr().out.splitlines() == expected

    def test_zero_vertex_grade_needs_model_labels(self, phi3_model_file, capsys):
        args = ["evaluate", "--model", phi3_model_file, "--loops", "0-1",
                "--vertices", "0-2", "--externals", "x1,x2"]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert "v=0 grade needs external labels that are model labels" in err
        assert "x1,x2" in err

    def test_invalid_model_exit_code(self, tmp_path, capsys):
        base = {"labels": ["x"], "propagator": {"x,x": "1"}, "vertex": {"3": "1"}}
        docs = [
            {**base, "inverse_propagator": {"x,x": "2"}},  # fails the identity
            {**base, "propagator": {"x,x": "1/0"}},
            {**base, "unit": "1/0"},
            {**base, "vertex": [1, 2]},
            {**base, "inverse_propagator": [1]},
            {**base, "vertex": {"3": "abc"}},
            {**base, "inverse_propagator": {"x": "1"}},
            {**base, "labels": "x"},  # a string, not a list of labels
            # vertex entries never read: degree 0 and the empty multiset take
            # "unit", and q is no model label
            {**base, "vertex": {"3": "1", "0": "5"}},
            {**base, "vertex": {"x,x": "1", "x,q": "2"}},
            {**base, "vertex": {"x,x": "1", "": "2"}},
            # two entries for one vertex, and a key given twice in the file
            {**base, "vertex": {"3": "1", "03": "2"}},
            {**base, "labels": ["x", "y"], "propagator": {"x,x": "1", "y,y": "1"},
             "vertex": {"x,y": "1", "y,x": "2"}},
            '{"labels": ["x"], "propagator": {"x,x": "1"}, "vertex": {"3": "1", "3": "2"}}',
            # non-finite floats, which would print nan or inf grades
            '{"labels": ["x"], "propagator": {"x,x": "1"}, "vertex": {"3": NaN}}',
            '{"labels": ["x"], "propagator": {"x,x": "1"}, "vertex": {"3": Infinity}}',
            '{"labels": ["x"], "propagator": {"x,x": "1"}, "vertex": {"3": 1e400}}',
            {**base, "labels": ["x", "x"]},
            {**base, "vertex": {"3": "1", "x,x": "1"}},  # degree and multiset entries
            {**base, "propagator": {"x,x": 0.5}},  # a float propagator, no inverse
            {**base, "propagator": {"x,x": "1", "x,q": "1"}},
            {**base, "vertex": {"3": None}},
            {**base, "vertex": {"3": True}},
            {**base, "propagator": {"x,x,x": "1"}},
        ]
        bad = tmp_path / "bad.json"
        for doc in docs:
            bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            code = main(["evaluate", "--model", str(bad), "--loops", "0", "--vertices", "1"])
            captured = capsys.readouterr()
            assert code == 4, doc
            assert captured.out == "" and captured.err.startswith("invalid model: "), doc


class TestExport:
    def test_json_round_trip_is_lossless(self, tmp_path, capsys):
        out_path = tmp_path / "graphs.json"
        code = main(
            ["generate", "--loops", "2", "--vertices", "2", "--format", "json",
             "--output", str(out_path)]
        )
        assert code == 0
        docs = json.loads(out_path.read_text())
        loaded = GraphSum(2, [(g, w) for g, w in map(graph_from_dict, docs)])
        assert loaded == omega(2, 2).canonical_merge()

    def test_export_to_dot(self, tmp_path, capsys):
        src = tmp_path / "graphs.json"
        main(["generate", "--loops", "1", "--vertices", "1", "--format", "json",
              "--output", str(src)])
        assert main(["export", "--input", str(src), "--format", "dot"]) == 0
        assert "v1 -- v1" in capsys.readouterr().out

    def test_missing_input(self, tmp_path, capsys):
        assert main(["export", "--input", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("fmt, text", [("text", ""), ("json", "[]\n"), ("dot", "")])
    def test_empty_selection(self, fmt, text, tmp_path, capsys):
        # No graph to print: a cell with no graph of valence 3, and an empty
        # graph-sum file.
        args = ["generate", "--loops", "0", "--vertices", "1", "--externals", "a,b",
                "--min-valence", "3", "--format", fmt]
        assert main(args) == 0
        assert capsys.readouterr().out == text
        src = tmp_path / "empty.json"
        src.write_text("[]")
        assert main(["export", "--input", str(src), "--format", fmt]) == 0
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize(
        "doc",
        [{"a": 1}, "abc", [1], [{"edges": []}], [{"v": 1, "externals": [["a", 1]]}],
         # Numbers that int() or Fraction() would read as another graph or weight:
         # v=2.9 as 2, the float 0.1 as 3602879701896397/36028797018963968.
         [{"v": 2.9, "edges": [[1, 2.7]], "externals": {"x": True}, "weight": "1/2"}],
         [{"v": 2, "edges": [[1, 2.7]], "externals": {"x": 1}}],
         [{"v": 2, "edges": [[1, 2]], "externals": {"x": True}}],
         [{"v": 1, "weight": 0.1}],
         [{"v": 1, "weight": True}],
         [{"v": "2"}],
         [{"v": 1, "weight": "1/0"}],
         # Raw text: json.load would keep the last of a key given twice.
         b'[{"v":1,"v":2,"externals":{"a":1,"a":2}}]'],
        ids=["object", "string", "number-entry", "no-vertex-count", "externals-list",
             "float-record", "float-edge-end", "bool-external-vertex", "float-weight",
             "bool-weight", "string-vertex-count", "zero-denominator-weight",
             "key-given-twice"],
    )
    def test_malformed_input_is_a_usage_error(self, tmp_path, capsys, doc):
        src = tmp_path / "bad.json"
        src.write_text(doc.decode() if isinstance(doc, bytes) else json.dumps(doc))
        assert main(["export", "--input", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        if isinstance(doc, bytes):
            assert captured.err == "error: keys given twice in one object: a\n"

    def test_integer_weight_is_exact(self, tmp_path, capsys):
        src = tmp_path / "graphs.json"
        src.write_text(json.dumps([{"v": 2, "edges": [[1, 2]], "weight": 3}]))
        assert main(["export", "--input", str(src)]) == 0
        assert "// weight 3/1" in capsys.readouterr().out
