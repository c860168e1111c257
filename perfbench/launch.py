"""Run the inforest CLI in-process with the benchmark's span wrappers.

Usage: ``python launch.py SPANS_FILE [inforest arguments...]``. Behaves like
``python -m inforest`` (same stdout, stderr and exit code) and writes the
spans of the call to ``SPANS_FILE``; ``cli.run`` is the root span.
"""

import sys

import inforest.cli

from spans import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        return tracer.call("cli.run", inforest.cli.run, argv)
    finally:
        tracer.active = False
        sys.stdout.flush()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
