"""Run ``repro serve`` in this process, optionally with layer spans.

    python3 perfbench/serve_main.py --trace 1 --spans-out spans.jsonl \
        -- serve --port 0 --workers 2 ...

Everything after ``--`` goes to the ``repro`` command line unchanged.  With
``--trace 1`` the layer wrappers from ``spans.py`` are installed before the
service starts, and the spans are written to ``--spans-out`` when it exits
(SIGTERM drains it first).
"""

import argparse
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    started = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - started
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.count("startup.import_s", import_s)
        tracer.active = True
    try:
        return repro.cli.main(cli_args)
    finally:
        if tracer is not None and args.spans_out:
            tracer.active = False
            tracer.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main())
