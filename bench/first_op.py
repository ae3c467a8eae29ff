"""One set-up sample: a fresh interpreter imports cavrate and runs the first
operation of a workload, then prints its import and first-operation times.

    python3 bench/first_op.py <workload> <seed>

run.py launches this several times in sequence and takes medians.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cavrate  # noqa: E402,F401

imported = time.perf_counter()

import workloads  # noqa: E402

workload = workloads.make(sys.argv[1], int(sys.argv[2]))
workload.op(workload.next_op())
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "first_op_s": done - imported}))
