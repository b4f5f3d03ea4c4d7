"""Run one seglimit CLI call in this fresh process and record its timings.

    python3 bench/call.py RESULT.json TRACE -- <seglimit argv...>

Writes RESULT.json with the time ``import seglimit.cli`` finished, the
start and end of ``seglimit.cli.main(argv)``, its return code and, when
TRACE is 1, the spans of the traced functions.  Times are CLOCK_MONOTONIC
seconds, comparable with the parent's spawn time.  Exits with the CLI's
return code.  ``python3 bench/call.py --import-only`` only imports the
package.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import seglimit.cli  # noqa: E402

t_imported = time.clock_gettime(time.CLOCK_MONOTONIC)

from spans import ROOT as ROOT_SPAN, Tracer  # noqa: E402


def main() -> int:
    if sys.argv[1] == "--import-only":
        return 0
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: call.py RESULT.json TRACE -- ARGV...")
    tracer = Tracer()
    if trace == "1":
        tracer.install()
    root = tracer.begin(ROOT_SPAN)
    rc = seglimit.cli.main(argv)
    tracer.end(root)
    start, end = tracer.spans[root][1:3]
    Path(result_path).write_text(json.dumps({
        "imported": t_imported, "start": start, "end": end, "rc": rc,
        "spans": tracer.spans if trace == "1" else [], "missing": tracer.missing,
    }))
    return rc


if __name__ == "__main__":
    sys.exit(main())
