"""Start one ``perfbase`` process with the benchmark's span wrappers.

Usage: ``python cli_boot.py <perfbase arguments>`` with ``repro`` on
``PYTHONPATH``.  The whole command is one operation named by
``$PERFBENCH_OP``: importing the CLI module and running ``main`` are
``cli`` spans, and the wrappers record every layer below them.  The
spans are written as JSON to ``$PERFBENCH_SPANS`` when ``main``
returns.
"""

import os
import sys

from spans import SpanRecorder

if __name__ == "__main__":
    recorder = SpanRecorder()
    code = 1
    try:
        with recorder.operation(0, os.environ["PERFBENCH_OP"]):
            with recorder.span("cli.import", "cli"):
                from repro.cli.main import main
            recorder.install()
            code = recorder.wrap(main, "cli.main", "cli")(sys.argv[1:])
    finally:
        recorder.dump(os.environ["PERFBENCH_SPANS"])
    sys.exit(code)
