"""Set-up cost paid by every CLI invocation, timed in a fresh interpreter.

Run as ``python3 perfbench/setup_probe.py <src-dir>``.  Prints one JSON line
with ``import_s`` (``import grunsky_bounds``) and ``tables_s`` (first-use
build of ``monotone_bounds(oid)`` and ``OBJECTIVES[oid].restriction(edge)``
for every 2-D objective and edge).
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])

t0 = time.perf_counter()
import grunsky_bounds  # noqa: E402
t1 = time.perf_counter()

from grunsky_bounds.domain import EdgeId  # noqa: E402
from grunsky_bounds.objectives import OBJECTIVES, monotone_bounds  # noqa: E402

t2 = time.perf_counter()
for oid, obj in OBJECTIVES.items():
    if obj.dimension != 2:
        continue
    monotone_bounds(oid)
    for edge in EdgeId:
        obj.restriction(edge)
t3 = time.perf_counter()

print(json.dumps({"import_s": t1 - t0, "tables_s": t3 - t2, "module": grunsky_bounds.__file__}))
