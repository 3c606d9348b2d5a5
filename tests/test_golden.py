"""Fixed-seed CLI output against golden files.

The files under ``tests/golden`` are the CSV output of

    laptail convergence --reps 20 --seed 1
    laptail decompound --reps 10 --seed 1
    laptail table2 --reps 10 --seed 1

for ``decompound_binomial.csv``, of the binomial case, whose transform
comes close enough to 0 on the contour that the tracked log bisects:

    laptail decompound --map binomial --big-m 4 --p-success 0.75 \
        --job gamma --job-params 20,0.05 --n 2000 --reps 10 --seed 1 \
        --w 0.5 --w 1 --w 1.5

and, for ``estimate.csv``, of the README quick start:

    laptail simulate --lambda 10 --mu 20 --delta 0.1 --n 10000 --seed 1 --out totals.txt
    laptail estimate --samples totals.txt --map mg1 --delta 0.1 --w 0.1609 --w 0.3912

Text cells must match exactly and numeric cells to 1e-8 relative: the CLI
prints ten significant digits, so a change in rounding may move the last
one, but nothing more. A change that is meant to alter these numbers
regenerates the files with the commands above and says why.
"""
import csv
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import laptail
from laptail.cli import main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"

RUNS = {
    "convergence": ["convergence", "--reps", "20", "--seed", "1"],
    "decompound": ["decompound", "--reps", "10", "--seed", "1"],
    "decompound_binomial": [
        "decompound", "--map", "binomial", "--big-m", "4", "--p-success",
        "0.75", "--job", "gamma", "--job-params", "20,0.05", "--n", "2000",
        "--reps", "10", "--seed", "1", "--w", "0.5", "--w", "1", "--w", "1.5"],
    "table2": ["table2", "--reps", "10", "--seed", "1"],
}


def cells_match(want: str, got: str) -> bool:
    try:
        a, b = float(want), float(got)
    except ValueError:
        return want == got
    return math.isclose(a, b, rel_tol=1e-8, abs_tol=0.0)


def assert_matches_golden(name: str, text: str) -> None:
    got = list(csv.reader(io.StringIO(text)))
    want = list(csv.reader(io.StringIO((GOLDEN / f"{name}.csv").read_text())))
    assert got[0] == want[0]
    assert len(got) == len(want)
    for row, (w, g) in enumerate(zip(want[1:], got[1:]), start=1):
        assert len(g) == len(w), f"row {row}"
        bad = [(col, a, b) for col, a, b in zip(want[0], w, g)
               if not cells_match(a, b)]
        assert not bad, f"row {row}: (column, golden, got) {bad}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_study_output_matches_golden(name, capsys):
    assert main(RUNS[name]) == 0
    assert_matches_golden(name, capsys.readouterr().out)


def simulate_quick_start_totals(totals: Path) -> None:
    assert main(["simulate", "--lambda", "10", "--mu", "20", "--delta", "0.1",
                 "--n", "10000", "--seed", "1", "--out", str(totals)]) == 0


def test_quick_start_estimate_matches_golden(tmp_path, capsys):
    totals = tmp_path / "totals.txt"
    simulate_quick_start_totals(totals)
    out = tmp_path / "estimate.csv"
    assert main(["estimate", "--samples", str(totals), "--map", "mg1",
                 "--delta", "0.1", "--w", "0.1609", "--w", "0.3912",
                 "--out", str(out)]) == 0
    assert_matches_golden("estimate", out.read_text())


def test_readme_python_quick_start_matches_golden(tmp_path):
    # the README's Python block, run as its own program next to the quick
    # start's totals.txt, prints the first cdf of the quick start
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)[1]
    simulate_quick_start_totals(tmp_path / "totals.txt")
    package_root = str(Path(laptail.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path,
                          capture_output=True, text=True, env=env,
                          timeout=60, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    value, on_domain_event, reason = proc.stdout.split()
    with open(GOLDEN / "estimate.csv", newline="") as fh:
        want = float(next(csv.DictReader(fh))["cdf"])
    assert math.isclose(float(value), want, rel_tol=1e-8, abs_tol=0.0)
    assert (on_domain_event, reason) == ("True", "None")
