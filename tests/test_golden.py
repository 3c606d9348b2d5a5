"""Fixed-seed CLI output against golden files.

The files under ``tests/golden`` are the CSV output of

    laptail convergence --reps 20 --seed 1
    laptail decompound --reps 10 --seed 1
    laptail table2 --reps 10 --seed 1

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
from pathlib import Path

import pytest

from laptail.cli import main

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "convergence": ["convergence", "--reps", "20", "--seed", "1"],
    "decompound": ["decompound", "--reps", "10", "--seed", "1"],
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


def test_quick_start_estimate_matches_golden(tmp_path, capsys):
    totals = tmp_path / "totals.txt"
    assert main(["simulate", "--lambda", "10", "--mu", "20", "--delta", "0.1",
                 "--n", "10000", "--seed", "1", "--out", str(totals)]) == 0
    out = tmp_path / "estimate.csv"
    assert main(["estimate", "--samples", str(totals), "--map", "mg1",
                 "--delta", "0.1", "--w", "0.1609", "--w", "0.3912",
                 "--out", str(out)]) == 0
    assert_matches_golden("estimate", out.read_text())
