"""Each experiment driver in scripts/ runs end to end at its smallest settings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import open_rebalance

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# Per driver: its smallest settings and the header line of each table it prints.
DRIVERS = {
    "run_label_dist_study.py": (["--epochs", "8", "--seeds", "0"],
                                ["label distribution     mean acc   (std)"]),
    "run_alpha_eta_sweeps.py": (["--epochs", "8", "--seeds", "0"],
                                ["eta            mean acc   (std)",
                                 "alpha          mean acc   (std)"]),
    "run_pool_study.py": (["--epochs", "8", "--seeds", "0"],
                          ["pool kind         mean acc",
                           "pool size (fresh labels)   mean acc   (std)",
                           "pool size (fixed labels)   mean acc   (std)"]),
    "run_ood_detection.py": (["--epochs", "8"],
                             ["method          test acc   fpr95   auroc   aupr (pool average)"]),
    "run_bayes_check.py": (["--cases", "10"], ["alpha     aux size   prior ratio   flipped mass"]),
}


@pytest.mark.parametrize("script", DRIVERS)
def test_driver_runs(tmp_path, script):
    flags, headers = DRIVERS[script]
    env = dict(os.environ, PYTHONPATH=str(Path(open_rebalance.__file__).parents[1]))
    # Run from outside the scripts directory: the _drivers import must not
    # depend on the working directory.
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *flags, "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for header in headers:
        assert header in lines, proc.stdout
