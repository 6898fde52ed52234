"""Set-up probe: time a fresh interpreter's import of qcss.cli plus one op.

Usage: python3 perfbench/probe.py SRC_DIR ARGV_JSON

Prints the elapsed seconds, the op's exit code and its stdout as one JSON
line. The clock starts before numpy or qcss is imported, so lazy costs
(module imports, the BLAS thread pool, FFT plans, root tables) all count.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from qcss import cli  # noqa: E402

out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(json.loads(sys.argv[2]))
print(json.dumps({"setup_s": time.perf_counter() - START, "exit": code, "out": out.getvalue()}))
