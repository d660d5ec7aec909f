"""`tools/fingerprint.py`, the bit-identity check of a change meant to leave
every number as it was, runs and prints its 15 lines in its format. The
pinned counts are those CI's n-sweep step and the README pin too."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
SOLVE = re.compile(r"(tp31|tp32|sweep n=\d+) (Converged|MaxOrder|Diverged) (\d+) (\S+) [0-9a-f]{40}")
ORACLE = re.compile(r"oracle (tp31|tp32) (\d+) (\d+) [0-9a-f]{40}")


def test_prints_one_line_per_solve_and_oracle():
    run = subprocess.run([sys.executable, str(TOOL)],
                         capture_output=True, text=True, check=True, timeout=120)
    assert run.stderr == ""
    lines = run.stdout.splitlines()
    assert len(lines) == 15
    solves = [SOLVE.fullmatch(line) for line in lines[:13]]
    oracles = [ORACLE.fullmatch(line) for line in lines[13:]]
    assert all(solves) and all(oracles), run.stdout
    names = [match[1] for match in solves]
    assert names == ["tp31", "tp32", *[f"sweep n={n}" for n in range(20, 121, 10)]]
    for match in solves:
        float(match[4])  # repr(cost)
    rows = {match[1]: (match[2], int(match[3])) for match in solves}
    assert rows["tp31"] == ("MaxOrder", 100)
    assert rows["tp32"] == ("MaxOrder", 20)
    assert rows["sweep n=20"] == ("Diverged", 14)
    assert rows["sweep n=120"] == ("Converged", 67)
    assert [match.groups() for match in oracles] == [("tp31", "9", "2"), ("tp32", "7", "2")]
