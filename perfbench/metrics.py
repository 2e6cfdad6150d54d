"""Small statistics and naming helpers shared by the harness and tests."""

from __future__ import annotations

import re
import statistics
from typing import NamedTuple, Sequence

import numpy as np

#: Metric and workload names: a letter or digit first, at most 64 of
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Percentiles a tail is reported at, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99, 99.999)

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


class Tail(NamedTuple):
    percentile: float
    value: float
    n_beyond: int


def tail(values: Sequence[float]) -> Tail:
    """The highest percentile with at least ten samples beyond it.

    ``n_beyond`` is the sample count past the percentile's rank,
    ``floor(n * (100 - p) / 100)``.  With fewer than twenty samples no
    percentile qualifies and the median is returned with its count.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of an empty sample")
    chosen = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if _beyond(n, p) >= TAIL_MIN_BEYOND:
            chosen = p
    value = float(np.percentile(np.asarray(values, dtype=float), chosen))
    return Tail(chosen, value, _beyond(n, chosen))


def _beyond(n: int, p: float) -> int:
    # Integer arithmetic on per-mille-of-a-percent steps avoids float
    # rounding at exact boundaries (e.g. 1000 samples at p99 -> 10).
    return (n * round((100.0 - p) * 1000)) // 100_000


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
