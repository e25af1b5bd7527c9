"""Set-up time of one workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py SRC_DIR WORKLOAD SEED

Times ``import cantorperm`` (with ``cli.build_parser()`` for CLI workloads)
plus building the workload's reusable objects, and prints the seconds taken
and the median time of three calibration kernels run afterwards.
"""
import sys
import time

start = time.perf_counter()
src, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, src)

import workloads  # noqa: E402  (imports cantorperm, inside the timed region)

workloads.setup(name, seed)
elapsed = time.perf_counter() - start

import calibrate  # noqa: E402

print(elapsed, sorted(calibrate.kernel() for _ in range(3))[1])
