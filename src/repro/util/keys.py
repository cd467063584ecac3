"""Dense codes for a key column: count where the keys allow it, sort otherwise.

Every site that numbers distinct keys — :func:`repro.tables.groupby.factorize`
(grouping, ``distinct``, the set operations, multi-column join keys, the
TSV loader's string columns) and :func:`repro.graphs.base.dense_labels`
(the node ids of every bulk graph build) — starts from
:func:`sorted_codes`. It picks one of three regimes by a property of the
input, never by an option:

* **dense integers** — an integer key whose value range spans at most
  the row count is its own code: ``key - min``. No sort, and the code
  table never has more entries than there are rows.
* **few values** — a 64-bit key with a handful of distinct values (the
  loader's two-valued ``Type``) is coded against a small sorted
  dictionary, one comparison pass per dictionary value. The dictionary
  comes from a strided sample and is checked against every row; a value
  the sample missed sends the key to the sort.
* **anything else** — one ``argsort``, a neighbour mask, and a running
  count of the runs.

All three give the same codes: each key's rank among the distinct keys,
with ``np.unique``'s equality (NaNs are one key, ``-0.0`` is ``0.0``).
:func:`first_appearance` then renumbers codes by first row with one
counting pass, which is what ``factorize`` returns. :func:`run_heads`
marks the runs of equal keys in a sorted array under that same
equality, for the sort regime and for the join's run table.
"""

from __future__ import annotations

import numpy as np

# Rows the few-values regime samples, and the most distinct values it
# takes: one pass over the keys per value, so past about eight a sort
# of uniform keys is cheaper.
_SAMPLE_ROWS = 1024
_FEW_VALUES = 8


def sorted_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, values)``: ``values`` ascend, and ``values[codes]`` equals ``keys``.

    ``codes`` is int64. ``values`` holds every distinct key once, and in
    the dense-integer regime also the absent integers between them, so
    ``len(values)`` is at most ``len(keys)`` but may exceed the number of
    distinct keys.

    >>> codes, values = sorted_codes(np.array([7, 5, 7, 8]))
    >>> codes.tolist(), values.tolist()
    ([2, 0, 2, 3], [5, 6, 7, 8])
    """
    keys = np.asarray(keys)
    n = len(keys)
    if n == 0:
        return np.empty(0, dtype=np.int64), keys[:0]
    kind = keys.dtype.kind
    if kind in "biu":
        # Signed, bool and narrow unsigned keys widen to int64; uint64
        # stays, so keys near 2**64 subtract without leaving the type.
        wide = keys if keys.dtype == np.uint64 else keys.astype(np.int64, copy=False)
        low, high = wide.min(), wide.max()
        if int(high) - int(low) < n:
            width = int(high) - int(low) + 1
            values = np.arange(width, dtype=wide.dtype) + low
            codes = (wide - low).astype(np.int64, copy=False)
            return codes, values.astype(keys.dtype, copy=False)
    if kind in "iuf":
        values = np.unique(keys[:: max(1, n // _SAMPLE_ROWS)])
        if len(values) <= _FEW_VALUES:
            codes = np.zeros(n, dtype=np.uint8)
            for value in values[1:]:
                codes += keys >= value
            # A NaN key, or a value the sample missed, fails this check.
            if (values[codes] == keys).all():
                return codes.astype(np.int64), values
    return _sort_codes(keys)


def run_heads(ordered: np.ndarray) -> np.ndarray:
    """Mask of the rows of sorted ``ordered`` that start a run of equal keys.

    Equality is ``np.unique``'s: ``-0.0`` runs with ``0.0``, and the NaNs,
    which sort last, are one run.
    """
    heads = np.empty(len(ordered), dtype=bool)
    heads[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=heads[1:])
    if ordered.dtype.kind == "f" and len(ordered) and np.isnan(ordered[-1]):
        heads[int(np.searchsorted(ordered, np.nan)) + 1 :] = False
    return heads


def _sort_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sorted_codes` of any sortable keys, by one ``argsort``."""
    # Any sort will do: equal keys get one code whatever their order.
    order = np.argsort(keys)
    ordered = keys[order]
    heads = run_heads(ordered)
    values = ordered[heads]
    del ordered  # freed before the code array: a lower peak
    codes = np.empty(len(keys), dtype=np.int64)
    codes[order] = np.cumsum(heads) - 1
    return codes, values


def first_appearance(codes: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Renumber ``codes`` below ``width`` by the first row holding each.

    Returns ``(labels, firsts)`` as :func:`repro.tables.groupby.factorize`
    does: ``labels[i]`` is row ``i``'s int64 label, and ``firsts[g]`` the
    first row of label ``g``, ascending. One ``np.minimum.at`` finds each
    code's first row, with no sort.

    >>> labels, firsts = first_appearance(np.array([3, 0, 3, 1]), 4)
    >>> labels.tolist(), firsts.tolist()
    ([0, 1, 0, 2], [0, 1, 3])
    """
    n = len(codes)
    first = np.full(width, n, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(n, dtype=np.int64))
    is_first = np.zeros(n, dtype=bool)
    is_first[first[first < n]] = True
    firsts = np.flatnonzero(is_first)
    label = np.empty(width, dtype=np.int64)
    label[codes[firsts]] = np.arange(len(firsts), dtype=np.int64)
    return label[codes], firsts
