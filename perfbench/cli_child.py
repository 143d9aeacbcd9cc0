"""Run one degen-kuramoto CLI call with the package's public functions traced.

Usage: python3 cli_child.py SPANS_JSON [subcommand args...]

Behaves like the installed entry point (same stdout, stderr and exit code)
and writes the recorded spans to SPANS_JSON as it exits.
"""

import json
import sys

from tracer import Tracer

import degen_kuramoto.cli as cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.cli_dispatch(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
