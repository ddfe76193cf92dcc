"""Every config of the golden corpus against its recorded outputs.

``tests/data/golden/README.md`` says what the corpus holds and
``tests/golden.py`` regenerates it.
"""

import os

import pytest

from golden import DATA, names, render


@pytest.mark.parametrize("name", names())
def test_outputs_match_the_golden_bytes(tmp_path, name):
    with open(os.path.join(DATA, f"{name}.golden"), encoding="utf-8", newline="") as fh:
        want = fh.read()
    got = render(os.path.join(DATA, f"{name}.cfg"), str(tmp_path / "out.csv"))
    assert got == want
