"""Peak resident memory of one CLI call, each in a fresh interpreter.

The child reports VmHWM, the peak RSS of its own address space. ru_maxrss
would not do: across exec it keeps the high-water mark of the process that
spawned the child, here pytest.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import er_evalkit

SRC = Path(er_evalkit.__file__).resolve().parents[1]

PEAK_CHILD = """
import sys
from er_evalkit.cli import dispatch
code = dispatch(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(code, peak)
"""

needs_vmhwm = pytest.mark.skipif(
    not Path("/proc/self/status").exists(),
    reason="peak RSS is read from /proc/self/status")


def peak_kb(*argv):
    """VmHWM in kB of ``er-evalkit ARGV``, which must exit 0 with no stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PEAK_CHILD,
                           *map(str, argv)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    code, peak = done.stdout.splitlines()[-1].split()
    assert (code, done.stderr) == ("0", "")
    return int(peak)
