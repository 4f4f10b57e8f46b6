"""Bootstrap of one traced cold CLI process.

    python3 perfbench/clirun.py RESULT_PATH [cli arguments ...]

Times ``import cayley8.cli``, installs the span wrappers, calls
``cli.main`` with the remaining arguments and writes the import time and
the aggregated spans to RESULT_PATH (spans beside it, gzipped).  Stdout
and the exit code are the CLI's own.  With RESULT_PATH ``-`` it only
imports the CLI, which is how set-up time is measured.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from cayley8 import cli
    import_s = time.perf_counter() - t0
    if result_path == "-":
        return 0

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    code = cli.main(argv)
    sys.stdout.flush()
    tracer.enabled = False
    tracer.write(result_path + ".spans.gz")
    with open(result_path, "w") as fh:
        json.dump({"import_s": import_s, "layers": tracer.aggregate()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
