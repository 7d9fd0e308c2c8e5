"""Small statistics shared by the parent (``run.py``) and the child
(``harness.py``); standard library only, so the parent can import it
without the program on its path."""

from __future__ import annotations

import math
import statistics


def summarise(values) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and sample count."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def geomean(values: list) -> float:
    values = [v for v in values if v > 0]
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0
