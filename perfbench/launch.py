"""Run one `supportq` command in this process, optionally recording spans.

    python3 perfbench/launch.py [--spans FILE --run ID --parent ID] -- <supportq arguments>

The caller puts the checkout's `src` on PYTHONPATH and fixes the BLAS thread
variables in the environment, so they hold before numpy loads here.  With
--spans, every call into the functions listed in tracing.TARGETS is recorded,
under one root span "cli.<command>", and the spans are written to FILE.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--spans")
    parser.add_argument("--run", default="")
    parser.add_argument("--parent")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    from supportq import cli

    if not args.spans:
        return cli.main(command)

    import tracing

    tracer = tracing.Tracer(parent=args.parent, run=args.run)
    undo = tracing.install(tracer)
    try:
        with tracer.span("cli." + command[0]):
            code = cli.main(command)
    finally:
        tracing.uninstall(undo)
        tracer.write(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
