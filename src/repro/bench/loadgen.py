"""The request mix the query daemon is measured with.

:func:`build_workload` draws one client's deterministic request
sequence from a store's own index, weighted by :data:`DEFAULT_MIX`.
The repo benchmark's serve workloads (``benchmarks/perf``) import it,
and the serve gates in ``tests/`` replay it; it moves under
``benchmarks/perf`` with the next change to the benchmark's definition.
"""

from __future__ import annotations

import random

__all__ = ["DEFAULT_MIX", "build_workload"]

#: weighted op mix (weights are relative draw frequencies); the shape
#: mirrors what the §7 clients actually ask: mostly points-to and
#: alias, a sprinkle of MOD/REF and call-graph questions
DEFAULT_MIX = {
    "points_to": 6,
    "alias": 3,
    "modref": 1,
    "pointed_by": 1,
    "callees": 1,
    "callers": 1,
    "reaches": 1,
}


def _request_pools(store: dict) -> dict[str, list[dict]]:
    """Concrete request candidates per op, drawn from the store's own
    index (every generated request names real procedures/variables, so
    answers exercise the fact tables, not the error paths)."""
    procs = store["index"]["procedures"]
    pools: dict[str, list[dict]] = {op: [] for op in DEFAULT_MIX}
    names = sorted(procs)
    for pname in names:
        rec = procs[pname]
        pool = sorted(rec["vars"])
        for var in pool:
            pools["points_to"].append(
                {"op": "points_to", "var": var, "proc": pname}
            )
        for i in range(len(pool) - 1):
            pools["alias"].append(
                {"op": "alias", "a": pool[i], "b": pool[i + 1], "proc": pname}
            )
        pools["modref"].append({"op": "modref", "proc": pname})
        pools["callees"].append({"op": "callees", "proc": pname})
        pools["callers"].append({"op": "callers", "proc": pname})
        if pname != names[0]:
            pools["reaches"].append(
                {"op": "reaches", "src": names[0], "dst": pname}
            )
    for name in sorted(store["index"].get("pointed_by", {})):
        pools["pointed_by"].append({"op": "pointed_by", "name": name})
    return pools


def build_workload(
    store: dict,
    count: int,
    repeat_half: bool = True,
    seed: int = 0,
) -> list[dict]:
    """One client's deterministic request sequence (length ``count``).

    Ops are drawn with :data:`DEFAULT_MIX` weights from the
    store-derived pools; with ``repeat_half`` the second half repeats
    the first (cache-hit realism).  Two calls with equal arguments
    build equal workloads.
    """
    pools = _request_pools(store)
    ops = [op for op in sorted(DEFAULT_MIX) if pools.get(op)]
    if not ops:
        raise ValueError("store yields no requests")
    weights = [DEFAULT_MIX[op] for op in ops]
    rng = random.Random(seed)
    fresh = count - count // 2 if repeat_half else count
    out: list[dict] = []
    for _ in range(fresh):
        op = rng.choices(ops, weights=weights)[0]
        out.append(dict(rng.choice(pools[op])))
    if repeat_half:
        out.extend(dict(req) for req in out[: count - fresh])
    return out
