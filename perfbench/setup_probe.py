"""Set-up time in a fresh interpreter.

Usage: ``python3 setup_probe.py PROBLEM.json``.  Times the import of
``qsum.cli``, then ``load_problem``, ``validate_spec`` and ``select_sector``
on the given file, which is what every command pays before it does any
work, and prints the timings as one JSON line.  Exits 1 when the problem
does not validate.
"""

import json
import sys
import time

t0 = time.perf_counter()
import qsum.cli as cli  # noqa: E402

t1 = time.perf_counter()
_, spec, _ = cli.load_problem(sys.argv[1])
t2 = time.perf_counter()
report = cli.validate_spec(spec)
t3 = time.perf_counter()
if not report.ok:
    sys.exit(1)
cli.select_sector(spec, 0.0)
t4 = time.perf_counter()
print(json.dumps({
    "setup_s": t4 - t0,
    "import_s": t1 - t0,
    "load_problem_s": t2 - t1,
    "validate_spec_s": t3 - t2,
    "select_sector_s": t4 - t3,
}))
