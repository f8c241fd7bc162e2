import copy
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from feyngen.algebra import Monomial, TensorTerm
from feyngen.graphs import OrderedGraph
from feyngen.oracle import ComparisonReport, SeriesEntry
from feyngen.recursion import GenOptions

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
    "SeriesEntry": (
        SeriesEntry(Fraction(1, 2), 3), (Fraction(1, 2), 3),
        SeriesEntry(coefficient=Fraction(1, 2), covariance_power=3), SeriesEntry(Fraction(1), 3),
        "SeriesEntry(coefficient=Fraction(1, 2), covariance_power=3)",
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
