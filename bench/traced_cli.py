"""Traced in-process run of the fracmix CLI.

    python3 bench/traced_cli.py --result FILE --workload NAME --seed N \
        -- inverse --config cfg.json --out out/

needs the package's ``src`` directory on PYTHONPATH.  It imports
``fracmix.cli`` (the set-up), wraps the layer boundaries listed in
``spans.PATCHES`` and calls ``fracmix.cli.main`` with the arguments after
``--`` inside a root span.  The span aggregate and the phase timings go to
FILE as JSON; the exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from spans import ROOT, Tracer
from workloads import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    start = time.perf_counter()
    import fracmix.cli
    import_s = time.perf_counter() - start

    tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}")
    tracer.install()
    main_start = time.perf_counter()
    code = tracer.wrap(ROOT, fracmix.cli.main)(cli_args)
    main_s = time.perf_counter() - main_start
    main_end_epoch = time.time()

    doc = {
        "run_id": tracer.run_id,
        "exit_code": code,
        "import_s": import_s,
        "main_s": main_s,
        "main_end_epoch": main_end_epoch,
        "missing": tracer.missing,
        "ml_distinct": len(tracer.ml_keys),
        "spans": tracer.aggregate(),
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main())
