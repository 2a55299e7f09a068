"""Run one `mnv` command with spans recorded, then write them out.

usage: python3 bench/traced_mnv.py SPANS_FILE MNV_ARGS...

The import of `moutardnv.cli` is timed on its own and written as the span
`cli.import`. Exits with the command's exit code.
"""

import sys
import time

t0 = time.perf_counter()
from moutardnv import cli  # noqa: E402
import_s = time.perf_counter() - t0

import tracing  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.op = "mnv"
    tracing.install(tracer)
    try:
        rc = cli.main(argv)
    finally:
        spans = list(tracing.span_dicts(tracer.spans))
        spans.append({"id": -1, "parent": -1, "op": None, "name": "cli.import",
                      "dur": import_s, "self": import_s, "failed": 0})
        tracing.write_spans(spans_file, spans)
    return rc


if __name__ == "__main__":
    sys.exit(main())
