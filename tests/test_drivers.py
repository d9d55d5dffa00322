"""Each experiment driver in scripts/ runs end to end at its smallest settings,
by absolute path from outside the repo. On the build that made
tests/golden/drivers.json it writes exactly the files and stdout hashed
there; on any other build, two runs write the same files and stdout.

After a deliberate change to the drivers' outputs, regenerate the manifest with

    PYTHONPATH=src python tests/test_drivers.py --write-golden
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import open_rebalance

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden" / "drivers.json"

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
TRAINING_DRIVERS = [script for script, (flags, _) in DRIVERS.items() if "--epochs" in flags]


def build():
    """What the drivers' bytes depend on besides the code: Python's minor
    version, numpy's version, its BLAS and the SIMD extensions it dispatches to."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas, simd = f"{blas['name']} {blas['version']}", config["SIMD Extensions"]["found"]
    except TypeError:  # numpy before 1.25 cannot return its config
        blas = simd = "unknown"
    return {"python": ".".join(platform.python_version_tuple()[:2]), "numpy": np.__version__,
            "blas": blas, "simd": simd}


def run_driver(script, flags, cwd):
    """Run a driver from cwd, outside the scripts directory (the _drivers
    import must not depend on the working directory), into cwd/out."""
    env = dict(os.environ, PYTHONPATH=str(Path(open_rebalance.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *flags, "--out", str(cwd / "out")],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def digests(proc, out):
    """The sha256 of stdout, with --out written as <out>, and of every file under out."""
    sha = lambda data: hashlib.sha256(data).hexdigest()
    files = {path.relative_to(out).as_posix(): sha(path.read_bytes())
             for path in sorted(out.rglob("*")) if path.is_file()}
    return {"stdout": sha(proc.stdout.replace(str(out), "<out>").encode()), "files": files}


@pytest.mark.parametrize("script", DRIVERS)
def test_driver_runs(tmp_path, script):
    flags, headers = DRIVERS[script]
    proc = run_driver(script, flags, tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for header in headers:
        assert header in lines, proc.stdout
    golden = json.loads(GOLDEN.read_text())
    got = digests(proc, tmp_path / "out")
    if golden["build"] != build():
        # No hashes of this build to compare with (on the golden build, equal
        # hashes imply this): a second run must write the same bytes.
        (tmp_path / "again").mkdir()
        again = run_driver(script, flags, tmp_path / "again")
        assert again.returncode == 0, again.stderr
        assert digests(again, tmp_path / "again" / "out") == got
        pytest.skip(f"golden driver hashes were made on {golden['build']}, this build is {build()}")
    assert got == golden["drivers"][script]


@pytest.mark.parametrize("script", TRAINING_DRIVERS)
@pytest.mark.parametrize("epochs", ["1", "7"])
def test_short_runs_refused_before_any_output(tmp_path, script, epochs):
    # 5 warmup epochs, then milestones at int(0.8 e) and int(0.9 e) that must
    # rise and come after the warmup: 8 epochs is the fewest that schedule.
    flags = list(DRIVERS[script][0])
    flags[flags.index("--epochs") + 1] = epochs
    proc = run_driver(script, flags, tmp_path)
    assert proc.returncode == 2
    assert "--epochs must be at least 8" in proc.stderr, proc.stderr
    assert not (tmp_path / "out").exists()


def write_golden():
    drivers = {}
    for script, (flags, _) in DRIVERS.items():
        with tempfile.TemporaryDirectory() as tmp:
            proc = run_driver(script, flags, Path(tmp))
            if proc.returncode != 0:
                sys.exit(f"{script} failed:\n{proc.stderr}")
            drivers[script] = digests(proc, Path(tmp) / "out")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"build": build(), "drivers": drivers}, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-golden"]:
        sys.exit(f"usage: {sys.argv[0]} --write-golden")
    write_golden()
