"""R006 fixture: pool kernel mutating captured state bare (flagged)."""

from repro.parallel.partition import split_range


def racy_total(pool, values):
    totals = {"sum": 0}

    def kernel(span):
        lo, hi = span
        for index in range(lo, hi):
            totals["sum"] += values[index]  # sibling kernels race here

    pool.map_chunks(split_range(len(values), pool.workers), kernel)
    return totals["sum"]
