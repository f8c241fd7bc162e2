import ast
import copy
import importlib
import json
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import feyngen
from feyngen.algebra import Monomial
from feyngen.cli import EXIT_MODEL, EXIT_RESOURCE, main
from feyngen.graphs import OrderedGraph
from feyngen.hopf import GenOptions, TensorTerm
from feyngen.oracle import ComparisonReport
from feyngen.records import graphs_to_json

SRC = Path(__file__).resolve().parent.parent / "src"

# Each case: a value built positionally, its fields, the same value built by
# keyword from unnormalised input, another value of the class, and the repr.
VALUES = {
    "Monomial": (
        Monomial(("a", "b")), (("a", "b"),),
        Monomial(factors=["b", "a"]), Monomial(("a",)),
        "Monomial(factors=('a', 'b'))",
    ),
    "TensorTerm": (
        TensorTerm((Monomial(("a",)), Monomial())), ((Monomial(("a",)), Monomial()),),
        TensorTerm(slots=[Monomial(("a",)), Monomial()]), TensorTerm((Monomial(),)),
        "TensorTerm(slots=(Monomial(factors=('a',)), Monomial(factors=())))",
    ),
    "OrderedGraph": (
        OrderedGraph(2, ((1, 2),)), (2, ((1, 2),), ()),
        OrderedGraph(vertex_count=2, edges=[(2, 1)], externals={}), OrderedGraph(2, ((1, 1),)),
        "OrderedGraph(vertex_count=2, edges=((1, 2),), externals=())",
    ),
    "GenOptions": (
        GenOptions(2, 2), (2, 2),
        GenOptions(min_valence=2, max_loops=2), GenOptions(2),
        "GenOptions(min_valence=2, max_loops=2)",
    ),
    "ComparisonReport": (
        ComparisonReport(False, (("value", 1, 2),)), (False, (("value", 1, 2),)),
        ComparisonReport(ok=False, diffs=(("value", 1, 2),)), ComparisonReport(True),
        "ComparisonReport(ok=False, diffs=(('value', 1, 2),))",
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_class_contract(name):
    value, fields, by_keyword, other, text = VALUES[name]
    assert by_keyword == value and hash(by_keyword) == hash(value) == hash(fields)
    assert value != other and other != value
    assert value != fields and fields != value
    assert repr(value) == text
    for field in re.findall(r"(?:^\w+\(|, )(\w+)=", text):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.undeclared = None
    assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Importing dataclasses, and through it inspect, ast and dis, costs every
    # command-line run over 10 ms.  -S keeps site hooks out of the module list.
    code = ("import feyngen.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("command, unloaded", [
    ("generate", {"feyngen.elimination", "feyngen.evaluation", "feyngen.hopf", "feyngen.oracle",
                  "feyngen.records", "json"}),
    ("export", {"feyngen.elimination", "feyngen.evaluation", "feyngen.hopf", "feyngen.oracle"}),
    ("evaluate", {"feyngen.elimination", "feyngen.hopf", "feyngen.oracle", "feyngen.records"}),
])
def test_each_command_loads_only_the_modules_it_runs(command, unloaded, tmp_path):
    # Every module a run imports is compiled on every run when no bytecode
    # cache is written.  -S keeps site hooks out of the module list.  Text
    # output needs no graph records; export reads and writes them.
    graphs = tmp_path / "graphs.json"
    graphs.write_text(graphs_to_json([(OrderedGraph(1, ((1, 1),)), Fraction(1, 2))]))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"labels": ["x"], "propagator": {"x,x": "1/3"},
                                 "vertex": {"3": "5/7"}}))
    args = {
        "generate": ["--loops", "0-1", "--vertices", "1-3", "--externals", "a"],
        "export": ["--input", str(graphs)],
        "evaluate": ["--model", str(model), "--loops", "1", "--vertices", "0-2"],
    }[command]
    code = ("import sys; from feyngen.cli import main; "
            "print(main(sys.argv[1:]), *sorted(sys.modules))")
    out = tmp_path / "out"
    argv = [command, *args, "--output", str(out)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    exit_code, *loaded = result.stdout.split()
    assert exit_code == "0" and out.stat().st_size > 0
    assert "feyngen.cli" in loaded and "feyngen.recursion" in loaded
    assert (command == "export") == ("feyngen.records" in loaded)
    assert not unloaded & set(loaded)


def _run_in_fresh_interpreter(argv: list[str]) -> tuple[int, set[str]]:
    """Run the command line on argv in a fresh interpreter; its exit code and
    the modules it loaded.  -S keeps site hooks out of the module list."""
    code = ("import sys; from feyngen.cli import main; code = main(sys.argv[1:]); "
            "print(); print(code, *sorted(sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    exit_code, *loaded = result.stdout.splitlines()[-1].split()
    return int(exit_code), set(loaded)


def test_generate_and_evaluate_load_only_the_engine(tmp_path):
    # The Hopf-algebra code, verify's suites and the json package stay off
    # the path of the engine's two commands, which compile every module they
    # load when no bytecode cache is written.  The graph records load only to
    # be written, and the elimination only for a multiset model.
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"labels": ["x"], "propagator": {"x,x": "1/3"},
                                 "vertex": {"3": "5/7"}}))
    multiset = tmp_path / "multiset.json"
    vertex = {",".join("x" * d): "5/7" if d == 3 else "0" for d in range(1, 6)}
    multiset.write_text(json.dumps({"labels": ["x"], "propagator": {"x,x": "1/3"},
                                    "vertex": vertex}))
    out = tmp_path / "out"
    engine = {"feyngen", "feyngen.algebra", "feyngen.cli", "feyngen.graphs", "feyngen.recursion"}
    generate = ["generate", "--loops", "0-1", "--vertices", "1-3", "--externals", 'a,"b',
                "--format", "json", "--output", str(out)]
    evaluate = ["--loops", "1", "--vertices", "0-2", "--externals", "x", "--output", str(out)]
    runs = (
        (generate, engine | {"feyngen.records"}),
        (["evaluate", "--model", str(model), *evaluate], engine | {"feyngen.evaluation"}),
        (["evaluate", "--model", str(multiset), *evaluate],
         engine | {"feyngen.evaluation", "feyngen.elimination"}),
    )
    for argv, modules in runs:
        exit_code, loaded = _run_in_fresh_interpreter(argv)
        assert exit_code == 0 and out.stat().st_size > 0
        assert {name for name in loaded if name.partition(".")[0] == "feyngen"} == modules
        if argv is generate:
            assert "json" not in loaded
    exit_code, loaded = _run_in_fresh_interpreter(
        ["verify", "--max-edges", "1", "--suite", "alt-recursion"])
    assert exit_code == 0 and "feyngen.hopf" in loaded


def test_benchmark_grade_check_loads_the_engine_and_hopf_only():
    # benchmark/run.py computes the grades it checks evaluate against with
    # sigma_recursive in its own process, before it starts the timed runs,
    # and each of those starts from the runner's memory, so a module this
    # loads raises every run's peak_rss_mb.  -S keeps site hooks out.
    code = ("import sys; from feyngen import Monomial, load_model, sigma_recursive; "
            "model = load_model(sys.argv[1]); "
            "print(*[sigma_recursive(model, 3, v, Monomial(('a', 'b'))) for v in (1, 2, 3)]); "
            "print(*sorted(name for name in sys.modules if name.partition('.')[0] == 'feyngen'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    model = SRC.parent / "benchmark" / "two_label_model.json"
    result = subprocess.run([sys.executable, "-S", "-c", code, str(model)], env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    grades, loaded = result.stdout.splitlines()
    assert grades.split() == ["0", "0", "360448/5764801"]
    assert loaded.split() == ["feyngen", "feyngen.algebra", "feyngen.evaluation",
                              "feyngen.graphs", "feyngen.hopf", "feyngen.recursion"]


def test_imports_only_the_standard_library():
    # No runtime dependencies: every absolute import of the package names a
    # module of the standard library (relative imports stay in the package).
    imported = set()
    for path in sorted((SRC / "feyngen").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.partition(".")[0])
    assert {"fractions", "json", "itertools"} <= imported
    assert sorted(imported - sys.stdlib_module_names) == []


#: The package's public names, which moving code between its modules keeps.
PUBLIC_NAMES = [
    "BOUND_LABEL_PREFIX", "CanonicalGraph", "ComparisonReport", "GenOptions", "GraphSum",
    "Model", "ModelError", "Monomial", "ONE", "OrderedGraph",
    "ResourceLimitError", "TensorTerm", "WeightedTensorSum", "apply_Q",
    "apply_T", "brute_force_canonicalize", "brute_force_edge_symmetry_factor",
    "brute_force_symmetry_factor", "canonicalize", "compare", "coproduct",
    "distribute", "edge_symmetry_factor", "enumerate_connected", "evaluate_graph",
    "evaluate_graph_sum", "graph_from_dict", "graph_to_dict", "graphs_to_json",
    "is_connected", "iterated_coproduct", "load_model", "loop_number", "min_valence_classes",
    "nu", "omega", "omega_alt", "omega_classes", "perfect_matching_count", "permute_vertices",
    "sigma_lv", "sigma_recursive", "symmetry_factor", "tensor_multiply",
    "to_dot", "vertex_bound", "vertex_symmetry_factor", "zero_dim_log_z",
]


def test_package_exports_are_the_defining_modules_objects():
    assert len(feyngen.__all__) == len(set(feyngen.__all__)) == 48
    assert sorted(feyngen.__all__) == PUBLIC_NAMES
    for name in feyngen.__all__:
        module = importlib.import_module(f"feyngen.{feyngen._MODULE_OF[name]}")
        value = getattr(feyngen, name)
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    namespace: dict = {}
    exec("from feyngen import *", namespace)
    assert all(namespace[name] is getattr(feyngen, name) for name in feyngen.__all__)
    assert set(feyngen.__all__) <= set(dir(feyngen))
    with pytest.raises(AttributeError, match="no_such_name"):
        feyngen.no_such_name
    from feyngen import cli, hopf  # submodules still import by name
    assert cli.main is main and hopf.omega is feyngen.omega


def test_error_classes_are_shared_and_keep_their_exit_codes(tmp_path, capsys):
    from feyngen import evaluation, oracle

    assert evaluation.ModelError is feyngen.ModelError
    assert oracle.ResourceLimitError is feyngen.ResourceLimitError
    singular = tmp_path / "model.json"
    singular.write_text(json.dumps({"labels": ["x"], "propagator": {"x,x": "0"}}))
    assert main(["evaluate", "--model", str(singular), "--loops", "0", "--vertices", "1"]) \
        == EXIT_MODEL == 4
    assert capsys.readouterr().err == "invalid model: propagator matrix is singular\n"
    assert main(["verify", "--max-edges", "6", "--suite", "graph-oracle"]) == EXIT_RESOURCE == 3
    assert capsys.readouterr().err == (
        "resource limit: graph-oracle grid up to 6 edges exceeds the "
        "brute-force oracle's limit of 5\n"
    )
