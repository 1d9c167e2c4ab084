"""Traced stand-in for `python -m momalg`, used by the cold-algebra traced run.

    python3 perfbench/launch.py SUMMARY_JSON OP_ID <momalg arguments...>

Imports momalg from the checkout, installs the same wrappers as the
in-process traced run, runs momalg's `__main__` exactly as `-m` would,
and on exit writes the span summary (plus start-up, post-import and
span-writing time) to SUMMARY_JSON and the spans next to it as
SUMMARY_JSON.spans.csv.gz.  The parent times the whole child, so it
subtracts the writing time from the op's wall time.
"""

from __future__ import annotations

import json
import runpy
import sys
import time
from pathlib import Path

import common
from tracer import Tracer


def main() -> None:
    out = Path(sys.argv[1])
    op_id = int(sys.argv[2])
    momalg_args = sys.argv[3:]
    common.import_momalg()
    import_s = common.since_process_start()
    tracer = Tracer(op=op_id)
    tracer.install()
    sys.argv = ["momalg"] + momalg_args
    code = 0
    try:
        runpy.run_module("momalg", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        post_import_s = common.since_process_start() - import_s
        start = time.perf_counter()
        tracer.write_spans(out.with_name(out.name + ".spans.csv.gz"))
        summary = tracer.summary()
        summary["import_s"] = import_s
        summary["post_import_s"] = post_import_s
        summary["write_s"] = time.perf_counter() - start
        out.write_text(json.dumps(summary))
    sys.exit(code)


if __name__ == "__main__":
    main()
