"""lahoc loads no SciPy module: its LAPACK calls go to NumPy's bundled
OpenBLAS (`lahoc.openblas`), and `import scipy.linalg` alone would cost about
0.3 s and 300 modules of start-up. Checked in fresh interpreters, after
`import lahoc` and after a verified CLI run that uses every binding. Nor does
`import lahoc` load `concurrent.futures`, which only the block-SVD worker
pool needs, at its first use."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def modules_after(package: str, code: str, *args: str) -> tuple[str, str]:
    """Run `code` in a fresh interpreter after `import lahoc`, with lahoc's
    sources first on the path; returns the file lahoc was imported from and
    the modules of top-level `package` loaded, space-separated."""
    probe = "\n".join([
        "import sys",
        "sys.path.insert(0, sys.argv[1])",
        "import lahoc",
        code,
        "print(lahoc.__file__)",
        f"print(' '.join(m for m in sorted(sys.modules) if m.split('.')[0] == {package!r}))",
    ])
    run = subprocess.run([sys.executable, "-c", probe, str(SRC), *args],
                         capture_output=True, text=True, check=True, timeout=120)
    imported_from, loaded = run.stdout.splitlines()[-2:]
    return imported_from, loaded


def test_import_loads_no_scipy_module():
    imported_from, loaded = modules_after("scipy", "pass")
    assert Path(imported_from).resolve().parent.parent == SRC
    assert loaded == ""


def test_a_verified_cli_run_loads_no_scipy_module(tmp_path):
    # the rule (dsterf), the operator and the oracle (dgbsv and dgbtrs) all
    # run; a nonzero exit fails the probe
    out = tmp_path / "out"
    run = ("from lahoc import cli\n"
           "if cli.main(['--builtin', 'tp31', '--compare', '--mesh', '400', '--out', sys.argv[2]]):\n"
           "    sys.exit('the CLI run failed')")
    _, loaded = modules_after("scipy", run, str(out))
    assert (out / "summary.txt").exists()
    assert loaded == ""


def test_import_loads_no_thread_pool():
    # concurrent.futures with its thread and queue modules is about 5 ms of a
    # fresh interpreter's start-up
    imported_from, loaded = modules_after("concurrent", "pass")
    assert Path(imported_from).resolve().parent.parent == SRC
    assert loaded == ""
