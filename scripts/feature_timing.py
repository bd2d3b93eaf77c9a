#!/usr/bin/env python3
"""Wall-time comparison of the three feature extractors over an (m, d) grid.

Reproduces the timing-table layout (rows = extractor, columns = grid cells)
and prints the derived ratios that the efficiency discussion rests on, then
the peak traced memory and the minor page faults of one untimed extraction
per (extractor, cell), over the timed cells plus the edge cell (1000, 300).

Large encoder blocks and the classical suite run on every CPU the process
may use, so the script first prints that worker count, and beside each
timed cell's wall seconds the process CPU seconds (user + system) it took:
their ratio is how many cores the cell kept busy on average.
"""

import argparse
import resource
import time
import tracemalloc

from popscape.analysis import (
    extractor_walltime,
    make_bench_extractor,
    random_observations,
    timings_to_table_csv,
)
from popscape.metabbo import EXTRACTOR_KINDS
from popscape.utils import cpu_workers


def cpu_seconds():
    """User plus system CPU seconds this process has used so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_traced_mb(kind, m, d):
    """Peak memory traced by `tracemalloc` during one extraction, in MB, and
    the minor page faults the process took during it."""
    fn = make_bench_extractor(kind)
    obs = random_observations(m, d, count=1)[0]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        fn(obs)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return tracemalloc.get_traced_memory()[1] / 1e6, faults
    finally:
        tracemalloc.stop()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--output", default="timing_table.csv")
    args = parser.parse_args()

    print(f"workers: {cpu_workers()} CPUs this process may run on")
    cells = [(100, 10), (100, 100), (1000, 10), (1000, 100)]
    rows, spent = [], []  # spent: (wall, CPU) seconds of each cell's timing
    for kind in EXTRACTOR_KINDS:
        for m, d in cells:
            wall, cpu = time.perf_counter(), cpu_seconds()
            rows.append(extractor_walltime(kind, m, d, args.runs))
            spent.append((time.perf_counter() - wall, cpu_seconds() - cpu))
    table = timings_to_table_csv(rows)
    with open(args.output, "w") as fh:
        fh.write(table)
    print(table)
    print("wall and CPU seconds of each cell's timing (warm-up call included)")
    for r, (wall, cpu) in zip(rows, spent):
        print(f"{r.kind} m{r.m}_d{r.d}: wall {wall:.3f} s, CPU {cpu:.3f} s ({cpu / wall:.2f}x)")

    mean = {(r.kind, r.m, r.d): r.mean_s for r in rows}
    print(f"neural vs classical suite at (m=1000, d=10): "
          f"{mean[('ela', 1000, 10)] / mean[('neural', 1000, 10)]:.2f}x")
    print(f"classical-suite growth d=10 -> d=100 at m=100: "
          f"{mean[('ela', 100, 100)] / mean[('ela', 100, 10)]:.1f}x")
    print(f"neural growth d=10 -> d=100 at m=100: "
          f"{mean[('neural', 100, 100)] / mean[('neural', 100, 10)]:.1f}x")

    # the memory table adds the large-m*d edge cell, too slow to time 20 times
    memory_cells = cells + [(1000, 300)]
    header = "extractor," + ",".join(f"m{m}_d{d}" for m, d in memory_cells)
    memory = {kind: [peak_traced_mb(kind, m, d) for m, d in memory_cells]
              for kind in EXTRACTOR_KINDS}
    print("peak traced memory (MB) of one extraction")
    print(header)
    for kind, results in memory.items():
        print(kind + "," + ",".join(f"{mb:.1f}" for mb, _ in results))
    print("minor page faults of the same extraction")
    print(header)
    for kind, results in memory.items():
        print(kind + "," + ",".join(str(faults) for _, faults in results))


if __name__ == "__main__":
    main()
