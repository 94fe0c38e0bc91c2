"""Time one fresh interpreter's set-up: ``import repro.cli``, then the
dataset build.  Run as a child process; prints one JSON object.

    python3 perfbench/setup_probe.py --db tpch
"""

import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--db", default="tpch")
    args = parser.parse_args()
    import_started = time.perf_counter()
    import repro.cli  # noqa: F401
    from repro.datasets import build_database

    imported = time.perf_counter()
    build_database(args.db)
    built = time.perf_counter()
    print(json.dumps({
        "import_s": imported - import_started,
        "build_s": built - imported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
