"""Seeded violations for the determinism pass — one per rule.

Includes a faithful reconstruction of the engine's historical
``best is _NO_EVENT`` bug: a ``float("inf")`` sentinel compared by
identity against a *computed* infinity, which only matched when
CPython happened to intern the value.
"""

import time

_NO_EVENT = float("inf")


def next_event_cycle(event_times):
    best = _NO_EVENT
    for t in event_times:
        if t < best:
            best = t
    if best is _NO_EVENT:  # float-identity: the original bug
        return None
    return best


def drain_pending():
    pending = {3, 1, 2}
    order = []
    for warp_id in pending:  # set-iteration: hash order leaks out
        order.append(warp_id)
    return order


def memoize_by_object(memo, obj, value):
    memo[id(obj)] = value  # id-keyed-dict: unstable across processes
    return memo


def stamp_result(result):
    result["finished_at"] = time.time()  # wall-clock
    return result


def flow_sensitive_leak(flag):
    ids = {4, 5}
    if flag:
        ids = {6, 7}
    return [i for i in ids]  # set-iteration: a set reaches on every path
