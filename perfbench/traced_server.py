"""Run ``repro-aes serve`` with the benchmark's span wrappers on.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced_server.py serve --port 0 --admin-port 0

It enables the program's own tracing (``repro.obs.tracing``), installs
the wrappers of :func:`spans.install_server`, then runs the CLI's
``serve`` command unchanged.  After the server shuts down it prints
one line, ``PERFBENCH-SPANS <json>``, holding the wrapper spans, the
program's trace events and what ``auto`` chose.
"""

from __future__ import annotations

import json
import sys
from typing import List

from repro import cli
from repro.obs.tracing import disable_tracing, enable_tracing

import spans


def main(argv: List[str]) -> int:
    tracer = enable_tracing()
    spans.mark_epoch(tracer)
    recorder = spans.Recorder()
    chosen = spans.install_server(recorder)
    code = cli.main(argv)
    disable_tracing()
    dump = {"spans": recorder.spans, "events": tracer.events(),
            "chosen": chosen}
    sys.stdout.write(spans.MARKER + json.dumps(dump) + "\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
