"""Seeded source edits for the freshness measurements.

Edit *n* puts, right after the opening brace of a procedure P that is
reachable from ``main``::

    int bench_edit_t<n>; int *bench_edit_p; bench_edit_p = &bench_edit_t<n>;

so after the edit ``points_to bench_edit_p@P`` must answer exactly
``["bench_edit_t<n>"]``. A daemon that still answers from the old text
either does not know ``bench_edit_p`` in P or names another target, so
the check does not depend on how the daemon refreshes.

The text goes on the brace's own line: no line moves, so heap sites,
which are named by line and column, keep their names, and every fact
outside the new locals reads as it did before the edit.
"""

from __future__ import annotations

import random
import re

#: a function definition head on one line, its ``{`` alone on the next
_HEAD = re.compile(r"^[A-Za-z_][\w \t*]*?\b([A-Za-z_]\w*)\s*\([^;{}]*\)\s*$")

EDIT_VAR = "bench_edit_p"


def edit_target(n: int) -> str:
    return f"bench_edit_t{n}"


def edit_text(n: int) -> str:
    t = edit_target(n)
    return f" int {t}; int *{EDIT_VAR}; {EDIT_VAR} = &{t};"


def procedure_bodies(text: str) -> dict[str, int]:
    """Procedure name -> index of the line holding its opening brace."""
    lines = text.split("\n")
    out: dict[str, int] = {}
    for i, line in enumerate(lines[:-1]):
        m = _HEAD.match(line)
        if m and lines[i + 1].strip() == "{":
            out[m.group(1)] = i + 1
    return out


def reachable(call_graph: dict, root: str = "main") -> set[str]:
    seen = {root}
    todo = [root]
    while todo:
        for callee in call_graph.get(todo.pop(), ()):
            if callee not in seen:
                seen.add(callee)
                todo.append(callee)
    return seen


def eligible_procedures(text: str, call_graph: dict) -> list[str]:
    """Procedures defined in ``text`` (one-line head, brace on the next
    line) that the store's call graph reaches from ``main``."""
    live = reachable(call_graph)
    return sorted(p for p in procedure_bodies(text) if p in live)


def apply_edit(text: str, proc: str, n: int) -> str:
    lines = text.split("\n")
    brace = procedure_bodies(text)[proc]
    lines[brace] += edit_text(n)
    return "\n".join(lines)


def edit_sequence(eligible: list[str], count: int, seed: int) -> list[str]:
    """The procedure edited by edits 1..count: the eligible procedures
    in an order drawn from ``seed``, each once before any repeats, so
    every run edits a like mix of procedures."""
    if not eligible:
        raise ValueError("no eligible procedure to edit")
    rng = random.Random(f"edit:{seed}")
    out: list[str] = []
    while len(out) < count:
        order = list(eligible)
        rng.shuffle(order)
        out += order
    return out[:count]
