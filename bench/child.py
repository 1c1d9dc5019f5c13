"""Run `orbitseries.cli` as `python -m orbitseries.cli ARG...` would, with
the speed probe of probe.py running, then write to STATS_FILE one JSON
object: this process's peak RSS in kB (VmHWM) and the probe's tick times.

    python3 bench/child.py STATS_FILE ARG...

The parent cannot take the peak from wait4: on Linux a child's ru_maxrss
also counts the parent's RSS at the moment of the spawn, and bench/run.py
is about as large as one `orbitseries` process. VmHWM belongs to the
address space the interpreter runs in after exec, so it is the child's own.
"""

import json
import os
import runpy
import sys

from probe import Probe


def vm_hwm_kb() -> int:
    """Peak resident set size of this process, in kB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    stats_file = sys.argv[1]
    sys.argv = ["orbitseries"] + sys.argv[2:]
    sys.path[0] = os.getcwd()   # as under -m, not this script's directory
    probe = Probe().start()
    try:
        runpy.run_module("orbitseries.cli", run_name="__main__", alter_sys=True)
    finally:
        ticks = probe.stop()
        with open(stats_file, "w", encoding="ascii") as fh:
            json.dump({"peak_kb": vm_hwm_kb(), "ticks": ticks}, fh)
