"""One CLI invocation as a user makes it: a fresh interpreter calling
``orefactor.cli.main(argv)``, as the ``orefactor`` console script does.

    python3 perfbench/cli_child.py [--spans FILE] -- ARGV...

With ``--spans``, the layer functions are traced and the spans of this
process are written to FILE as JSON when main returns.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> int:
    argv = sys.argv[1:]
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: cli_child.py [--spans FILE] -- ARGV...", file=sys.stderr)
        return 2
    argv = argv[1:]
    start = time.perf_counter()
    import orefactor.cli

    import_ms = (time.perf_counter() - start) * 1e3
    if spans_path is None:
        return orefactor.cli.main(argv)
    import json

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return orefactor.cli.main(argv)
    finally:
        with open(spans_path, "w") as handle:
            json.dump(tracer.record(import_ms), handle)


if __name__ == "__main__":
    sys.exit(main())
