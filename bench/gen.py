"""Seeded synthetic `.itab` tables for the benchmark.

Each object draws a latent complete row; every condition cell is then
masked into one of the `.itab` cell kinds. The decision column ``d`` is
derived from the latent values of a1 and a2 (yes when a1 + a2 >= d - 1),
flipped with the label noise probability, and always a known value, so
that ``--class-column d --class-value yes`` defines the class. The
program under test only ever sees the written text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Default cell-kind mix for incomplete tables: known, do-not-care,
#: two-value partial holding the latent value, not applicable.
MIX = {"known": 0.75, "star": 0.10, "partial": 0.10, "na": 0.05}


@dataclass(frozen=True)
class TableSpec:
    n: int
    m: int
    d: int
    mix: tuple[tuple[str, float], ...] = tuple(MIX.items())
    class_specific: float = 0.0
    noise: float = 0.10
    distinct: bool = False


def generate(spec: TableSpec, rng: random.Random) -> tuple[str, dict]:
    """Return the `.itab` text of one table and its recorded shape."""
    attrs = [f"a{i}" for i in range(1, spec.m + 1)]
    domain = [str(v) for v in range(spec.d)]
    kinds = [k for k, _ in spec.mix]
    weights = [w for _, w in spec.mix]
    seen: set[tuple[str, ...]] = set()
    rows = []
    while len(rows) < spec.n:
        latent = [rng.randrange(spec.d) for _ in attrs]
        cells = [_mask(rng.choices(kinds, weights)[0], v, spec.d, rng) for v in latent]
        if spec.distinct and tuple(cells) in seen:
            continue
        seen.add(tuple(cells))
        yes = latent[0] + latent[1] >= spec.d - 1
        if rng.random() < spec.noise:
            yes = not yes
        rows.append((cells, "yes" if yes else "no"))
    if spec.class_specific:
        # Only known cells of rows with a known a1 convert, and a1 itself
        # never does, so the rate is scaled up to hit the share of all cells.
        known = dict(spec.mix)["known"]
        rate = spec.class_specific * spec.m / ((spec.m - 1) * known * known)
        _add_class_specific(rows, rate, rng)
    distinct = len({tuple(cells) for cells, _ in rows})
    lines = [f"@attributes {' '.join(attrs)} d"]
    lines += [f"@domain {a} {' '.join(domain)}" for a in attrs]
    lines += ["@domain d yes no", "@objects"]
    lines += [f"x{i} {' '.join(cells)} {label}" for i, (cells, label) in enumerate(rows, 1)]
    counts = {k: 0 for k in ("known", "star", "partial", "na", "class_specific")}
    for cells, _ in rows:
        for cell in cells:
            counts[_kind(cell)] += 1
    shape = {
        "n": spec.n,
        "m": spec.m,
        "d": spec.d,
        "distinct_row_share": distinct / spec.n,
        "formulas": (spec.d + 1) ** spec.m - 1,
        "cells": counts,
        "class_share": sum(label == "yes" for _, label in rows) / spec.n,
    }
    return "\n".join(lines) + "\n", shape


def _mask(kind: str, value: int, d: int, rng: random.Random) -> str:
    if kind == "known":
        return str(value)
    if kind == "star":
        return "*"
    if kind == "partial":
        other = rng.choice([v for v in range(d) if v != value])
        return "{" + "|".join(str(v) for v in sorted((value, other))) + "}"
    return "NA"


def _kind(cell: str) -> str:
    if cell == "*":
        return "star"
    if cell == "NA":
        return "na"
    if cell.startswith("{"):
        return "partial"
    if cell.startswith("^"):
        return "class_specific"
    return "known"


def _add_class_specific(rows: list, rate: float, rng: random.Random) -> None:
    """Turn known cells outside a1 into ``^(a1)`` references at ``rate``, keeping only
    those that resolve: the object's a1 is known and some other object
    with the same a1 value has a known value in that column."""
    m = len(rows[0][0])
    for j in range(1, m):
        peers: dict[str, int] = {}
        for cells, _ in rows:
            if _kind(cells[0]) == "known" and _kind(cells[j]) == "known":
                peers[cells[0]] = peers.get(cells[0], 0) + 1
        for cells, _ in rows:
            if (
                _kind(cells[0]) == "known"
                and _kind(cells[j]) == "known"
                and peers[cells[0]] > 1
                and rng.random() < rate
            ):
                peers[cells[0]] -= 1
                cells[j] = "^(a1)"
