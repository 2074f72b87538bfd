"""Every name the benchmark tracer rebinds still exists.

``perfbench/tracer.py`` times each layer by rebinding module globals of
``localmine`` by name, so renaming or deleting one of them breaks the
traced benchmark.  The instrumentation runs in a child process: the
rebinding would otherwise leak into the other tests.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.dont_write_bytecode = True
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer, instrument_mining, instrument_setup
instrument_mining(Tracer(), 0.5)
instrument_setup(Tracer())
"""


def test_tracer_instruments_every_name():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
