"""Run one `orbitseries` command line with layer tracing installed.

    python3 bench/traced_cli.py SUMMARY.json ARG...

Runs `orbitseries.cli.main(ARGS)` in this fresh process, exits with its code
and writes the per-layer summary of the spans to SUMMARY.json. `src/` of the
current directory must hold the package.
"""

import json
import os
import sys
import time

_T0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import orbitseries.cli as cli  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    with tracer.root("op"):
        code = cli.main(argv)
    summary = {
        "import_s": _IMPORT_S,
        "layers": tracing.summarize(tracer.spans),
        "reduced_distinct": len(tracer.reduced_keys),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
