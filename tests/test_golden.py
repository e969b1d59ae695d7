"""`rnwarp verify --format json`, `curvature` and `fluid` output pinned byte for byte.

Each file under tests/data holds the stdout of one run. A change to
how the numbers are computed (batching, reordering, caching) must leave
every byte of it as it is. The files were written with numpy 2.4.6 and
its bundled OpenBLAS on x86-64, under the dispatch that tests/conftest.py
pins: numpy's SIMD loops capped at AVX2 (NPY_DISABLE_CPU_FEATURES) and
OpenBLAS's Haswell kernels (OPENBLAS_CORETYPE), which any x86-64-v3 CPU
runs. Under AVX-512 some of numpy's transcendental functions (arctan2,
power, cbrt, arcsin) round differently, and the oracle's matmuls, which
BLAS computes with a kernel chosen for the CPU, may sum in another order
or fuse differently. On another numpy version or BLAS build the files are
regenerated from a commit whose numbers are trusted, never edited by hand.
"""

import io
import json
import struct
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from rnwarp import cli, verify

DATA = Path(__file__).parent / "data"

GOLDEN = [
    ("reference", "1", "0.6"),
    ("schwarzschild", "1", "0"),
    ("low", "7.937343156201144", "4.843070307581991"),
    # Q/m ~ 0.989, in the steep band (0.98 <= Q/m < 1 - 1e-4): a narrow
    # horizon gap with the base tolerance and thresholds
    ("steep", "0.3486070955447274", "0.3448051857717322"),
    # (m - Q)/m < 1e-4: the report carries the near-extremal note, with the
    # base tolerance and thresholds
    ("near_extremal", "0.10810660455688946", "0.10809595965137506"),
    # small uncharged mass (r_minus = 0): the static chart's metric entries
    # are small in these units, and the oracle's row-normalized pivot check
    # passes them
    ("pivot_floor", "0.16523791279038202", "0"),
]


def test_dispatch_is_pinned_below_avx512():
    # tests/conftest.py caps numpy's dispatch before numpy loads; on a CPU
    # without AVX-512 the feature reads False anyway
    assert np._core._multiarray_umath.__cpu_features__["AVX512_SKX"] is False


@pytest.mark.parametrize("name, mass, charge", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_verify_report_is_byte_identical(name, mass, charge):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["verify", "--mass", mass, "--charge", charge, "--format", "json"])
    assert code == 0
    assert out.getvalue() == (DATA / f"verify_{name}.json").read_text()


@pytest.mark.parametrize("name, mass, charge", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_verify_csv_carries_the_json_report(capsys, name, mass, charge):
    # the same names, the same floats bit for bit and the same pass values,
    # in the row format both read
    out = {}
    for fmt in ("csv", "json"):
        assert cli.main(["verify", "--mass", mass, "--charge", charge, "--format", fmt]) == 0
        out[fmt] = capsys.readouterr().out
    header, *lines = out["csv"].splitlines()
    checks = json.loads(out["json"])["checks"]
    assert header.split(",") == list(verify.VERIFY_COLUMNS) == list(checks[0])
    assert len(lines) == len(checks)
    for line, check in zip(lines, checks):
        for text, value in zip(line.split(","), check.values(), strict=True):
            if isinstance(value, bool):
                assert text == json.dumps(value)
            elif isinstance(value, float):
                assert struct.pack("<d", float(text)) == struct.pack("<d", value)
            else:
                assert text == value


TABLES = [
    ("reference", "1", "0.6", ()),
    ("schwarzschild", "1", "0", ()),
    # away from theta = pi/2 the phph columns differ from the thth ones
    ("reference_theta", "1", "0.6", ("--theta", "0.7")),
]


@pytest.mark.parametrize("command", ["curvature", "fluid"])
@pytest.mark.parametrize("name, mass, charge, extra", TABLES, ids=[t[0] for t in TABLES])
def test_table_is_byte_identical(command, name, mass, charge, extra):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([command, "--mass", mass, "--charge", charge, "--grid", "64", *extra])
    assert code == 0
    assert out.getvalue() == (DATA / f"{command}_{name}.csv").read_text()
