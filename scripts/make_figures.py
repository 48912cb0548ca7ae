#!/usr/bin/env python3
"""Regenerate the four standard figure datasets as CSV files.

Usage:
    python scripts/make_figures.py [--out-dir data]

Equivalent to running the `eprbell fig1..fig4` subcommands with default
settings; fig2 is emitted once per default transmission with an eta column.
"""

import argparse
import pathlib
import time

from eprbell.report import (
    DEFAULT_ETAS,
    DEFAULT_FIG2_R,
    default_fig1_spec,
    default_fig2_j_grid,
    default_fig3_spec,
    default_fig4_spec,
    fig1,
    fig2_stacked,
    fig3,
    fig4,
    table_to_csv,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs = [
        ("fig1.csv", lambda: fig1(default_fig1_spec())),
        ("fig2.csv", lambda: fig2_stacked(DEFAULT_FIG2_R, DEFAULT_ETAS, default_fig2_j_grid())),
        ("fig3.csv", lambda: fig3(default_fig3_spec())),
        ("fig4.csv", lambda: fig4(default_fig4_spec())),
    ]
    for name, build in jobs:
        start = time.perf_counter()
        table = build()
        path = out_dir / name
        with open(path, "w", newline="\n") as fh:
            fh.write(table_to_csv(table))
        print(f"{path}: {len(table.rows)} rows in {time.perf_counter() - start:.2f}s")


if __name__ == "__main__":
    main()
