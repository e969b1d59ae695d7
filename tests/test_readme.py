"""The README's library example runs as printed and gives the values its comments state."""

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text()
    start = text.index("```python\n", text.index("## Library example")) + len("```python\n")
    return text[start:text.index("```", start)]


def _commented_values(code: str, line_start: str) -> list[float]:
    line = next(line for line in code.splitlines() if line.startswith(line_start))
    return [float(v) for v in re.search(r"#\s*\(([^)]*)\)", line).group(1).split(",")]


def test_library_example_runs_and_matches_its_comments():
    code = _library_example()
    scope: dict = {}
    exec(compile(code, str(README), "exec"), scope)
    stated = _commented_values(code, "rd = ")
    assert stated == [0.36, -0.2304, 0.36, 0.36]
    rd, wr = scope["rd"], scope["wr"]
    # the closed form at r = 1 is Q^2 (1, -N^2, 1, 1) with N^2 = 0.64: the
    # stated values to rounding, and the warp formulas agree with it
    for route in (rd, wr):
        got = [route.r_mumu, route.r_nunu, route.r_thth, route.r_phph]
        assert got == pytest.approx(stated, rel=1e-14, abs=0.0)
    assert rd.scalar == 0.0 and abs(wr.scalar) < 1e-14
    rep = scope["rep"]
    assert rep.r == 1.0 and math.isfinite(rep.mu) and rep.rho > 0.0 and rep.pressure > 0.0
    r, grid = scope["r"], scope["grid"]
    assert r.shape == (64,) and grid.r_mumu.shape == (64,)
    # "grid.r_mumu[k] is the value at r[k]"
    at = scope["ricci_closed_form"](scope["p"], float(r[17]), math.pi / 2)
    assert grid.r_mumu[17] == at.r_mumu
