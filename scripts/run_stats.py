#!/usr/bin/env python3
"""Sweep symmetry-type fractions per discriminant and write the CSV."""

import argparse
import csv
from dataclasses import dataclass
from pathlib import Path

from surdsym.cli import main as cli_main


@dataclass(frozen=True)
class StatsRun:
    delta_max: int = 9999
    jobs: int = 4
    out: Path = Path("out/stats.csv")

    def execute(self) -> None:
        self.out.parent.mkdir(parents=True, exist_ok=True)
        rc = cli_main(["stats", "--delta-max", str(self.delta_max),
                       "--jobs", str(self.jobs), "--format", "csv",
                       "--out", str(self.out)])
        if rc != 0:
            raise SystemExit(rc)
        with self.out.open(newline="") as fh:
            *_, tail = csv.DictReader(fh)
        label = ", ".join(f"{col[len('count_'):]}={n}"
                          for col, n in tail.items() if col.startswith("count_"))
        print(f"wrote {self.out} ({self.delta_max} max delta); "
              f"sample row delta={tail['delta']}: {label}")


def parse_args() -> StatsRun:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta-max", type=int, default=9999)
    ap.add_argument("--jobs", type=int, default=4)
    ap.add_argument("--out", type=Path, default=Path("out/stats.csv"))
    ns = ap.parse_args()
    return StatsRun(ns.delta_max, ns.jobs, ns.out)


if __name__ == "__main__":
    parse_args().execute()
