#!/usr/bin/env python3
"""Regenerate the four standard figure datasets as CSV files.

Usage:
    python scripts/make_figures.py [--out-dir data]

Runs the `eprbell fig1..fig4` subcommands with default settings, writing
<out-dir>/figN.csv; fig2 is emitted once per default transmission with an
eta column.
"""

import argparse
import pathlib
import sys
import time

from eprbell import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("fig1", "fig2", "fig3", "fig4"):
        start = time.perf_counter()
        path = out_dir / f"{name}.csv"
        code = cli.main([name, "--out", str(path)])
        if code:
            return code
        print(f"{path}: {time.perf_counter() - start:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
