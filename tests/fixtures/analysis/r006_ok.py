"""R006 fixture: the three accepted kernel-write disciplines (clean)."""

from repro.parallel.partition import split_range


def locked_total(pool, values, lock):
    totals = {"sum": 0}

    def kernel(span):
        lo, hi = span
        with lock:
            totals["sum"] += sum(values[lo:hi])

    pool.map_chunks(split_range(len(values), pool.workers), kernel)
    return totals["sum"]


def counted_total(pool, values, counter):
    def kernel(span):
        lo, hi = span
        counter.fetch_add(sum(values[lo:hi]))

    pool.map_chunks(split_range(len(values), pool.workers), kernel)
    return counter.value


def partition_fill(pool, out, offsets, payload):
    # Disjoint spans: each write is indexed by this kernel's own range.
    def kernel(span):
        lo, hi = span
        for index in range(lo, hi):
            start = offsets[index]
            stop = offsets[index + 1]
            out[start:stop] = payload[index]

    pool.map_chunks(split_range(len(offsets) - 1, pool.workers), kernel)
