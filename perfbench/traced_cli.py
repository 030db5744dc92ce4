"""Run one ``qsum`` command with the benchmark's tracer installed.

Usage: ``python3 traced_cli.py TRACE.json.gz QSUM_ARGS...``.  Exits with the
command's own exit code and writes the command's spans and counters, plus
its ``qsum.cli`` import time, to ``TRACE.json.gz``.
"""

import sys
import time

import tracing

t0 = time.perf_counter()
import qsum.cli  # noqa: E402

import_s = time.perf_counter() - t0

tracer = tracing.Tracer()
tracing.install(tracer)
tracer.op = " ".join(sys.argv[2:])
try:
    rc = qsum.cli.main(sys.argv[2:])
finally:
    tracer.dump(sys.argv[1], import_s=import_s)
sys.exit(rc)
