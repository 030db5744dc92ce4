"""Record the summed values that runs with the default seed are checked against.

Usage: ``python3 perfbench/record_reference.py`` from the repository root.
Runs the first ``REFERENCE_UNITS`` units of ``sum-g601`` and ``cli-forcing``
with ``DEFAULT_SEED`` and rewrites ``perfbench/reference.json``.  Re-record
only when a change is meant to move the values; the check then compares
against the new ones.
"""

import json
import os
import sys

import workloads

if __name__ == "__main__":
    import run

    os.environ.update(run.THREAD_CAPS)
    sys.path[:0] = [str(workloads.SRC)]
    out = {}
    for name in ("sum-g601", "cli-forcing"):
        run_dir = workloads.BENCH / "_runs" / f"record-{name}-{os.getpid()}"
        run_dir.mkdir(parents=True, exist_ok=True)
        wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, run_dir, None)
        rec = workloads.Record()
        for unit in range(workloads.REFERENCE_UNITS):
            wl.unit(rec, unit)
        if rec.failures:
            sys.exit("cannot record a reference from a failing run:\n" + "\n".join(rec.failures))
        out[name] = rec.values
    # one row per line: t_r, t_theta, z_re, z_im, value_re, value_im, budget
    blocks = []
    for name, units in out.items():
        per_unit = [
            f'  "{unit}": [\n' + ",\n".join("   " + json.dumps(r) for r in rows) + "\n  ]"
            for unit, rows in units.items()
        ]
        blocks.append(f' "{name}": {{\n' + ",\n".join(per_unit) + "\n }")
    path = workloads.BENCH / "reference.json"
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {path}")
