import os

# The golden files under tests/data are recorded with numpy's SIMD dispatch
# capped at AVX2 and OpenBLAS's Haswell kernels, which every x86-64-v3 CPU
# runs; their bits would differ under AVX-512 kernels. Both variables are
# read when numpy loads, so they are set before anything imports it. A CPU
# without the disabled features runs as pinned already (numpy may say so in
# an ImportWarning)
os.environ["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
os.environ["OPENBLAS_CORETYPE"] = "Haswell"

import math

import pytest
from hypothesis import HealthCheck, settings

from rnwarp import BlackHoleParams

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

PI_2 = math.pi / 2.0


@pytest.fixture
def charged():
    """The workhorse configuration: comfortably nonextremal, r = 1 interior."""
    return BlackHoleParams(1.0, 0.6)


@pytest.fixture
def schwarzschild():
    return BlackHoleParams(1.0, 0.0)
