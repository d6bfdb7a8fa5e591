"""Names the benchmark harness reaches into must keep existing.

`perfbench/run.py` wraps `dop.cli` and `dop.parser` attributes for its
traced run and imports names from `dop` for its oracle check. Its own
smoke test is not part of this suite, so these tests read the names out
of the script and check that each still resolves, and check on one toy
parse the fields that the traced run's callbacks and the oracle check read.
"""

import ast
from pathlib import Path

import dop
import dop.cli
import dop.parser

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _function(name):
    for node in ast.walk(ast.parse(RUN.read_text(encoding="utf8"))):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError("%s defines no function %s" % (RUN, name))


def test_traced_benchmark_wraps_existing_attributes():
    modules = {"cli": dop.cli, "parser": dop.parser}
    wrapped = []
    for node in ast.walk(_function("trace_commands")):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "wrap"):
            owner_path = ast.unparse(node.args[0])
            wrapped.append((owner_path, node.args[1].value))
    assert len(wrapped) >= 10
    missing = []
    for owner_path, attr in wrapped:
        head, *rest = owner_path.split(".")
        owner = modules[head]
        for part in rest:
            owner = getattr(owner, part, None)
        if not hasattr(owner, attr):
            missing.append("%s.%s" % (owner_path, attr))
    assert missing == []


def test_oracle_check_imports_exist():
    names = [alias.name
             for node in ast.walk(_function("oracle_check"))
             if isinstance(node, ast.ImportFrom) and node.module == "dop"
             for alias in node.names]
    assert names
    assert [name for name in names if not hasattr(dop, name)] == []


def test_traced_benchmark_reads_existing_fields(toy_model):
    # what trace_commands' callbacks and oracle_check read off a parse
    parser = dop.parser.SentenceParser(toy_model)
    words = "john likes mary".split()
    assert set(words) <= parser.vocabulary
    chart = parser.parser.chart(words)
    assert sum(len(cell) for cell in chart.cells.values()) > 0
    assert sum(len(item.edges) for cell in chart.cells.values()
               for item in cell.values()) > 0
    assert chart.start_items
    result = parser.parse(words)
    assert 0 < result.probability <= sum(t[2] for t in result.tree_tallies)
    assert dop.write_tree(result.tree) == result.tree_tallies[0][0]
