"""Traced entry point for one CLI child of the benchmark's `cli` workload.

    python3 bench/cli_shim.py TOTALS_PATH [cremona-bounds arguments...]

Times `import cremona_bounds` and `cli.main` separately, installs the
benchmark's span wrappers around main, and writes the per-layer totals to
TOTALS_PATH and the raw spans to TOTALS_PATH.spans. Nothing is written to
stdout, so the CLI's own output is byte-for-byte what it prints untraced.
PYTHONPATH must point at the library source.
"""

import json
import sys
import time

t_start = time.perf_counter()
import cremona_bounds  # noqa: E402

t_imported = time.perf_counter()
from cremona_bounds import cli  # noqa: E402

import tracer  # noqa: E402  (this script's directory is on sys.path)


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    ledger = tracer.CacheLedger(cremona_bounds)
    trc = tracer.Tracer(cremona_bounds)
    trc.install()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        main_s = time.perf_counter() - t0
        trc.uninstall()
        totals = trc.totals(ledger.finish())
        totals["cli.import_ms"] = 1e3 * (t_imported - t_start)
        totals["cli.main_ms"] = 1e3 * main_s
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(totals, fh)
        trc.dump(path + ".spans")
    return code


if __name__ == "__main__":
    sys.exit(main())
