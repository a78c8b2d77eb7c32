#!/usr/bin/env python3
"""Fits contentionShare (workloads.go) from logged runs.

    for i in $(seq 1 20); do for w in lib_control app_kernels ...; do
        BENCH_YARD=1 sh bench/run.sh --workload $w --seed $i --seconds 10 --trace 0 2>>yard.log >/dev/null
    done; done
    python3 bench/fit_share.py yard.log

With BENCH_YARD set the bench prints one line per stage of set-up and
per block to standard error: workload, mode, block, wall s, cpu s, median
and p95 latency in us, and the two yardstick probes over their quiet
cost. Cycle through the workloads for at least half an hour, so that the
log holds both the quiet box and the busy one. For each workload this
prints the two shares s, one for the blocks and one for the set-up, that
make the runs agree best once every time is divided by 1 + s(c-1), c the
geometric mean of the two probes, and the spread of each timing (distance
between the quartiles over the median, over the runs) before and after.
"""
import collections
import statistics
import sys


def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)


def runs_of(paths):
    """workload -> list of runs; a run is mode -> list of (wall, cpu, p50, p95, c)."""
    runs = collections.defaultdict(list)
    for path in paths:
        for line in open(path):
            f = line.split()
            if len(f) != 10 or f[0] != "Y":
                continue
            w, what, b = f[1], f[2], int(f[3])
            wall, cpu, p50, p95, store, echo = map(float, f[4:])
            # Set-ups come first in a run, so the first set-up line after a
            # block line opens a new run.
            if what == "setup" and (not runs[w] or len(runs[w][-1]) > 1):
                runs[w].append(collections.defaultdict(list))
            if runs[w]:
                runs[w][-1][what].append((wall, cpu, p50, p95, (store * echo) ** 0.5))
    return runs


def series(runs, s):
    """name -> the quiet-box value of each run at share s."""
    out = collections.defaultdict(list)
    for run in runs:
        for what, col, name in (("green", 0, "wall"), ("precise", 0, "precise wall"), ("green", 1, "cpu"),
                                ("green", 2, "p50"), ("green", 3, "p95")):
            out[name].append(statistics.median(b[col] / (1 + s * (b[4] - 1)) for b in run[what]))
        out["setup"].append(sum(b[0] / (1 + s * (b[4] - 1)) for b in run["setup"]))
    return out


def main():
    for w, runs in runs_of(sys.argv[1:]).items():
        runs = [r for r in runs if len(r["green"]) >= 10]
        if len(runs) < 8:
            print(f"{w}: {len(runs)} whole runs, need 8")
            continue
        grid = [x / 20 for x in range(31)]
        run_share = min(grid, key=lambda s: max(spread(v) for k, v in series(runs, s).items() if k != "setup"))
        setup_share = min(grid, key=lambda s: spread(series(runs, s)["setup"]))
        raw, fit = series(runs, 0), series(runs, run_share)
        fit["setup"] = series(runs, setup_share)["setup"]
        cs = [statistics.median(b[4] for b in r["green"]) for r in runs]
        print(f"{w}: {len(runs)} runs, contention {min(cs):.2f} to {max(cs):.2f}, shares {{{run_share:.2f}, {setup_share:.2f}}}")
        for k in raw:
            print(f"    {k:13s} spread {spread(raw[k]):.3f} as measured, {spread(fit[k]):.3f} on the quiet box")


if __name__ == "__main__":
    main()
