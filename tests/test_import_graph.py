"""`import lahoc` must stay light: SciPy's heavy subpackages cost about 0.4 s
of start-up and none of them is needed (lahoc's only SciPy import is
`scipy.linalg`)."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = (
    "scipy.interpolate",
    "scipy.optimize",
    "scipy.special",
    "scipy.sparse",
    "scipy.spatial",
    "scipy.fft",
)


def test_import_loads_no_heavy_scipy_subpackage():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import lahoc; "
        "print(lahoc.__file__); "
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    run = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    imported_from, loaded = run.stdout.splitlines()
    assert Path(imported_from).resolve().parent.parent == SRC
    assert loaded == ""
