"""The benchmark tracer's function tables name functions the package has.

perfbench/tracer.py looks every SPANNED and COUNTED name up with getattr and
no default, so a renamed or dropped function would crash every traced run.
The tables are read from the source; the tracer is not imported.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                    tables[target.id] = ast.literal_eval(node.value)
    assert set(tables) == {"SPANNED", "COUNTED"}
    return [(layer, name) for table in tables.values() for layer, names in table.items() for name in names]


def test_traced_functions_exist():
    names = traced_names()
    assert ("oracle", "random_case") in names and ("oracle", "bayes_predict") in names
    for layer, name in names:
        module = importlib.import_module(f"open_rebalance.{layer}")
        assert callable(getattr(module, name, None)), f"open_rebalance.{layer}.{name}"
