"""One traced ``arguesia`` CLI invocation, for the traced run of the cli workload.

    python3 perfbench/child.py SUMMARY.json OP_ID <arguesia arguments...>

Installs the tracer before the CLI runs, writes the CLI's output to standard
output as ``arguesia`` would, and writes the trace summary to SUMMARY.json.
``arguesia`` must be importable (run.py sets PYTHONPATH to the source tree).
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    summary_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.op_id, tracer.op_kind = op_id, f"{argv[0]} {argv[1]}"
    from arguesia import cli

    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
