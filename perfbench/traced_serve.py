"""Start ``repro serve`` with the layer spans installed.

The traced twin of ``python -m repro serve``: it wraps the layer
functions of :mod:`layers` inside this process, then calls the same
entry point, ``repro.cli.main(["serve", ...])``.  When the server stops
(SIGINT), the originals are restored and the spans are written to
``--spans``.

Usage::

    python perfbench/traced_serve.py --spans spans.json -- serve --port 0
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import tracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True, metavar="PATH")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    recorder = tracer.Recorder()
    installation = tracer.install(recorder, layers.TARGETS)
    try:
        from repro.cli import main as repro_main

        return repro_main(cli_args)
    finally:
        installation.restore()
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
