"""Run the typel CLI with tracing installed, then write its spans.

Usage: python3 perfbench/cli_shim.py SPANS_JSON COMMAND ARGS...

The traced cli workload starts this in place of ``python -m typel.cli``;
the exit code and standard output are those of the CLI.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import typel.cli  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        with tracer.span("cli.main"):
            code = typel.cli.main(sys.argv[2:])
    sys.stdout.flush()
    record = {"spans": tracer.records(), "probes": tracer.probes, "rows": tracer.rows}
    Path(sys.argv[1]).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
