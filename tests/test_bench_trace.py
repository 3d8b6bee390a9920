"""The traced benchmark wraps pcsimp functions by name; a renamed or deleted
one makes every `bench/run.py --trace 1` run fail before its first round."""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_trace_wrappers_find_every_name_they_wrap():
    # a subprocess, because importing bench/run.py sets BLAS environment variables
    code = "import run, tracing; t = tracing.Tracer(); run.wrap_layers(t); t.restore()"
    result = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
