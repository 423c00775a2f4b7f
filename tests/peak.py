"""Peak memory of one CLI call: resident, in a fresh interpreter, or as
Python allocates it, in this one.

The child reports VmHWM, the peak RSS of its own address space. ru_maxrss
would not do: across exec it keeps the high-water mark of the process that
spawned the child, here pytest.
"""

import contextlib
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import er_evalkit
from er_evalkit.cli import dispatch

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


def traced_peak_kb(*argv):
    """Peak in kB of the memory Python allocates while ``er-evalkit ARGV``
    runs in this process, which must exit 0; stdout is discarded.

    Unlike VmHWM, tracemalloc does not count memory the C allocator keeps
    after Python freed it. glibc raises its mmap threshold when a large
    block is freed, so a second multi-MB file read comes from the heap,
    and its freed text stays resident while that file's rows are decoded.
    """
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = dispatch(list(map(str, argv)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak // 1024
