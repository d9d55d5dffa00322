"""The package's public surface: the README's examples run, and every name a
module exports exists."""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import open_rebalance

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("cli", "data", "metrics", "nn", "oracle", "priors", "train")


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    results, cfg = namespace["results"], namespace["cfg"]
    assert [r.config.seed for r in results] == [0, 1, 2]
    assert results[0].history == namespace["result"].history
    assert len(results[0].history) == cfg.epochs
    np.testing.assert_array_equal(namespace["counts"], [500, 158, 50, 16, 5])


def test_readme_complementary_example():
    text = README.read_text()
    assert "`complementary(prior_from_counts([3, 1]), alpha=1.0)` → `[0.25, 0.75]`" in text
    gammas = open_rebalance.complementary(open_rebalance.prior_from_counts([3, 1]), alpha=1.0)
    np.testing.assert_allclose(gammas, [0.25, 0.75])


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"open_rebalance.{name}")
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert not missing, missing
    namespace = {}
    exec(f"from open_rebalance.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
