"""Run one ifncheck CLI command under the span tracer.

    python -X importtime perfbench/tracecli.py SPANS_FILE CLI_ARGS...

The CLI is imported before the tracer so that `-X importtime` sees its
imports as a plain `ifncheck` invocation would.  Spans and counters are
written to SPANS_FILE when the command ends; the exit code is the CLI's.
"""

import sys

import ifncheck.cli

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return ifncheck.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
