"""`rnwarp verify --format json` output pinned byte for byte.

Each file under tests/data holds the stdout of one verify run. A change to
how the numbers are computed (batching, reordering, caching) must leave
every byte of it as it is. The files were written with numpy 2.4.6 on
x86-64 (AVX-512). einsum's reductions may add in another order under
another numpy build or SIMD width, and libm's sin and exp may round
differently elsewhere; on such a platform the files are regenerated from a
commit whose numbers are trusted, never edited by hand.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from rnwarp import cli

DATA = Path(__file__).parent / "data"

GOLDEN = [
    ("reference", "1", "0.6"),
    ("schwarzschild", "1", "0"),
    ("low", "7.937343156201144", "4.843070307581991"),
    # Q/m >= 0.98: the oracle is skipped for the horizon gap
    ("steep", "0.3486070955447274", "0.3448051857717322"),
    # (m - Q)/m < 1e-4: quadrature tolerance and thresholds relaxed
    ("near_extremal", "0.10810660455688946", "0.10809595965137506"),
    # the static chart's determinant falls under the oracle's pivot floor
    ("pivot_floor", "0.16523791279038202", "0"),
]


@pytest.mark.parametrize("name, mass, charge", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_verify_report_is_byte_identical(name, mass, charge):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["verify", "--mass", mass, "--charge", charge, "--format", "json"])
    assert code == 0
    assert out.getvalue() == (DATA / f"verify_{name}.json").read_text()
