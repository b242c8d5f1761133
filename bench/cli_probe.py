"""Run one ``cosetalg`` CLI call with its layers traced.

    python3 bench/cli_probe.py <spawn time> <cosetalg arguments...>

``<spawn time>`` is the parent's ``time.time()`` just before it started this
process, so the gap to this file's first line is the interpreter's start-up.
The call's stdout and exit code are those of ``cosetalg``; the last line on
stderr is ``BENCH-TRACE`` followed by a JSON object of per-layer self times
and counts, plus the start-up and import times in milliseconds.
"""

import sys
import time

started = time.time()

import json  # noqa: E402

import tracing  # noqa: E402

spawned = float(sys.argv[1])
t0 = time.perf_counter()
import cosetalg.cli  # noqa: E402

imported = time.perf_counter() - t0

tracer = tracing.Tracer()
tracing.install(tracer)
code = cosetalg.cli.main(sys.argv[2:])
sys.stdout.flush()
summary = tracer.summary()
summary["cli.startup_ms"] = (started - spawned) * 1e3
summary["cli.import_ms"] = imported * 1e3
print(tracing.MARKER + json.dumps(summary), file=sys.stderr)
sys.exit(code)
