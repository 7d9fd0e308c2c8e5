"""Behaviour-equivalent twin of ``case_determinism_bad.py`` using the
deterministic idioms every rule recommends. Must lint clean."""

_NO_EVENT = float("inf")


def next_event_cycle(event_times):
    best = _NO_EVENT
    for t in event_times:
        if t < best:
            best = t
    if best == _NO_EVENT:  # value comparison, not identity
        return None
    return best


def drain_pending():
    pending = {3, 1, 2}
    order = []
    for warp_id in sorted(pending):  # explicit deterministic order
        order.append(warp_id)
    if len(pending) != len(order):
        raise AssertionError
    return order


def memoize_by_key(memo, obj, value):
    memo[obj.key] = value  # stable identity, not id()
    return memo


def stamp_result(result, cycle):
    result["finished_at"] = cycle  # simulated time, not the wall clock
    return result


def flow_sensitive_normalized(flag):
    ids = {4, 5}
    if flag:
        ids = sorted(ids)
    return [i for i in ids]  # a sorted() definition reaches: order is pinned
