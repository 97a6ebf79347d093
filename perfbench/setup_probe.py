"""Set-up probe: import sbmm from the given source tree, parse one config,
print the split as one JSON line and exit.

    python3 perfbench/setup_probe.py <src dir> <config>

run.py times this process from spawn to that line.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sbmm  # noqa: E402

t1 = time.perf_counter()
sbmm.parse_config(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}), flush=True)
