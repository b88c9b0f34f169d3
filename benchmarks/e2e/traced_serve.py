"""``repro serve`` with timing spans around the program's public functions.

Usage: ``python traced_serve.py SPANS.json serve CSV:NAME --port 0``

Installs the wrappers from :mod:`tracing`, runs the unmodified
``repro.cli.main`` with the remaining arguments, and writes the spans
recorded between the load generator's on/off markers to ``SPANS.json``
when the server exits (SIGINT drains and stops it).
"""

from __future__ import annotations

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.install(tracing.SERVE_TARGETS, serving=True)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
