import sys
from pathlib import Path

# the benchmark measures the rnwarp in this checkout's src/, never an installed one
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
