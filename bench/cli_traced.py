"""``python -m stieltjes.cli`` with the benchmark's spans installed.

Runs the CLI on ``sys.argv[1:]`` exactly as the module entry point does,
then writes the spans, the import time of ``stieltjes.cli`` and nothing
else as one ``BENCH-TRACE {json}`` line on stderr.  The CLI's own
stdout is untouched, so the job's report is checked as usual.
"""

import json
import os
import sys
import time

start = time.perf_counter()
import stieltjes.cli  # noqa: E402

import_ms = 1000.0 * (time.perf_counter() - start)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402  (after the timed import, which it must not warm)


def main() -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.active, tracer.op = True, 0
    rec = tracer.open("op")
    try:
        return stieltjes.cli.main(sys.argv[1:])
    finally:
        tracer.close(rec)
        tracer.active = False
        sys.stdout.flush()
        dump = dict(tracer.snapshot(), import_ms=import_ms)
        print("BENCH-TRACE " + json.dumps(dump), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
