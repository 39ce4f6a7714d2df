"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD

Prints the seconds from before `import ratimm` (through `workloads`) to
the workload's inputs being built, at the reference host speed of
`hostspeed.py`.  Interpreter start-up, and the `fractions` import that
the speed probe needs first, are not included.
"""

import sys
from time import perf_counter

from hostspeed import REFERENCE_LOOP_S, HostSpeed

speed = HostSpeed(interval=0.01)  # set-up takes under 0.2 s
with speed:
    start = perf_counter()
    import workloads  # noqa: E402

    workloads.WORKLOADS[sys.argv[1]].prepare()
    end = perf_counter()
print(repr(speed.work(start, end) * REFERENCE_LOOP_S))
