"""Run one CLI command as ``python -m viscosym.cli`` does, with the tracing
wrappers installed after import.

    python3 bench/cli_traced.py REPORT SPANS OP_ID <viscosym arguments>

Writes the import time and the per-function counts to REPORT and appends
the spans to SPANS, also when the command raises.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    report_path, spans_path, op_id, *argv = sys.argv[1:]
    started = time.perf_counter()
    from viscosym import cli
    import_s = time.perf_counter() - started

    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.op_id = int(op_id)
    try:
        code = cli.run(argv)
    finally:
        Path(report_path).write_text(json.dumps({"import_s": import_s,
                                                 "trace": tracer.summary()}))
        tracer.write_spans(spans_path, f"cli-{op_id}", _START)
    sys.exit(code)


if __name__ == "__main__":
    main()
