"""Run one `zqwalk` command with the benchmark's tracer installed.

    python3 cli_child.py SPANS_JSON SUBCOMMAND [ARGS...]

Equivalent to the installed `zqwalk` console script (`zqwalk.cli:main`), plus
a `cli.import` span for importing the package and the library spans of the
command, written to SPANS_JSON when the command returns.  The exit code is
the command's.  zqwalk is found through PYTHONPATH, as the parent sets it.
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import zqwalk.cli

    tracer.add_span("cli.import", start, time.perf_counter())
    with tracer.installed(), tracer.recording(None):
        code = zqwalk.cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump([span.to_json() for span in tracer.spans], fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
