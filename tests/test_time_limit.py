"""The per-test time limit of conftest.py ends a hanging run."""

import subprocess
import sys
import time
from pathlib import Path

CONFTEST = Path(__file__).resolve().parent / "conftest.py"


def test_hanging_test_ends_the_run(tmp_path):
    text = CONFTEST.read_text()
    assert "TEST_TIME_LIMIT_S = 120\n" in text
    (tmp_path / "conftest.py").write_text(text.replace("TEST_TIME_LIMIT_S = 120\n",
                                                       "TEST_TIME_LIMIT_S = 1\n"))
    (tmp_path / "test_hang.py").write_text(
        "import time\n\n\ndef test_fast():\n    pass\n\n\n"
        "def test_hang():\n    time.sleep(60)\n")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           str(tmp_path)], capture_output=True, text=True, cwd=tmp_path,
                          timeout=50)
    assert time.perf_counter() - start < 40
    assert done.returncode == 1
    assert "Timeout (0:00:01)!" in done.stderr
    assert "in test_hang" in done.stderr
