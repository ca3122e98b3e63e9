"""`test-connectivity --trials` below 1 is a usage error (exit 2).

Exit 1 means Reject, so a count that runs no trial must not end there.
"""

import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "localcuts.cli"]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_nonpositive_trials_is_a_usage_error(tmp_path, trials):
    path = tmp_path / "cycle.txt"
    path.write_text("3 3\n1 2\n2 3\n3 1\n")
    r = subprocess.run(CLI + ["test-connectivity", str(path), "--property",
                              "edge", "--k", "1", "--epsilon", "0.5",
                              "--trials", trials],
                       capture_output=True, text=True)
    assert r.returncode == 2
    assert "--trials" in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_one_trial_still_runs(tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text("3 3\n1 2\n2 3\n3 1\n")
    r = subprocess.run(CLI + ["test-connectivity", str(path), "--property",
                              "edge", "--k", "1", "--epsilon", "0.5",
                              "--trials", "1"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert '"trials": 1' in r.stdout
