"""Set-up probe: start, import microhom with numpy and scipy, build the config
and field of one workload, then print the monotonic clock and exit.

    python3 perfbench/setup_probe.py <src dir> <workload cfg> <seed>

`run.py` starts it several times and takes the printed time minus the time
just before the start as one set-up sample.
"""

import sys
import time
from dataclasses import replace

sys.path.insert(0, sys.argv[1])

import numpy  # noqa: E402,F401
import scipy.sparse.linalg  # noqa: E402,F401
from microhom import load_config  # noqa: E402

config = replace(load_config(sys.argv[2]), seed=int(sys.argv[3]))
config.make_field()
print(repr(time.monotonic()))
