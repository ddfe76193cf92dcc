"""The 400 default suite cases against their recorded CSVs.

``tests/data/suite_<theorem>.csv`` is ``gronwall suite``'s output for each
suite family with the default seeds (42-141) and m = 256.  Verdicts,
Picard statuses and compared prefixes must match exactly; the violation
and the horizon time within 1e-12 (1 + |x|), so that a last-bit change in
``exp`` on another CPU does not fail.  A change that moves a verdict on
purpose regenerates the files (``gronwall suite --config X --out
tests/data/suite_<theorem>.csv`` with ``[problem] theorem = <theorem>``
alone in X) and says so in CHANGES.md.
"""

import math
import os

import pytest

from gronwall import cli
from gronwall.oracle import SUITE_FAMILIES

DATA = os.path.join(os.path.dirname(__file__), "data")
EXACT = ("seed", "p", "pass", "picard_status", "compare_node")
CLOSE = ("max_violation", "horizon_time")


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    return header.split(","), [dict(zip(header.split(","), r.split(","))) for r in rows]


@pytest.mark.parametrize("theorem", SUITE_FAMILIES)
def test_default_suite_matches_the_recorded_csv(tmp_path, theorem):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(f"[problem]\ntheorem = {theorem}\n")
    out = tmp_path / "suite.csv"
    cli.main(["suite", "--config", str(cfg), "--out", str(out)])
    header, rows = read_csv(out)
    want_header, want_rows = read_csv(os.path.join(DATA, f"suite_{theorem}.csv"))
    assert header == want_header
    assert len(rows) == len(want_rows) == 100
    for got, want in zip(rows, want_rows):
        for key in EXACT:
            assert got[key] == want[key], (theorem, want["seed"], key)
        for key in CLOSE:
            x, y = float(got[key]), float(want[key])
            if math.isnan(y):
                assert math.isnan(x), (theorem, want["seed"], key)
            else:
                assert abs(x - y) <= 1e-12 * (1.0 + abs(y)), (theorem, want["seed"], key, x, y)
