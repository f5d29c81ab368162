"""Seeded generator of instance documents for the ``report`` workload.

The documents follow the instance distribution of the package's randomized
self-test at desk scale, ``selftest.random_instance(rng, max_pieces=15)``,
rendered at window 6.  The drawing procedure is re-implemented here and
never calls the package, so a change to the package cannot change this
workload unseen; ``test_perfbench`` checks that the two distributions agree.

The stream is a stratified sample of that distribution, so that its mix of
costs is the same for every seed.  Each (kind, refined, strongly graded,
piece count) cell gets a fixed quota of the documents: its share of the
source distribution (``SOURCE_COUNTS``, tallied over 200,000 draws of
``random_instance``) times the document count, rounded by largest
remainder.  Quotas are filled in seeded draw order, so the documents of a
cell are draws from the source conditioned on that cell.
Piece ids follow the documented canonical order: on the line, intervals
left to right and then jump points left to right; abstract refinements
number the cells of each base piece consecutively.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

DOCUMENTS = 1200
WINDOW = 6
MAX_PIECES = 15
UNREFINED_SHARE = 0.35

# (kind, refined, strongly graded, pieces): draws of random_instance(rng,
# max_pieces=15) in that cell, out of 200,000 from random.Random(20191025).
SOURCE_COUNTS = {
    ("abstract", False, False, 2): 4633,
    ("abstract", False, False, 3): 6743,
    ("abstract", False, False, 4): 7392,
    ("abstract", False, False, 5): 7245,
    ("abstract", False, False, 6): 7407,
    ("abstract", False, True, 1): 9489,
    ("abstract", False, True, 2): 3513,
    ("abstract", False, True, 3): 1024,
    ("abstract", False, True, 4): 233,
    ("abstract", False, True, 5): 49,
    ("abstract", False, True, 6): 11,
    ("abstract", True, False, 2): 1876,
    ("abstract", True, False, 3): 3548,
    ("abstract", True, False, 4): 4055,
    ("abstract", True, False, 5): 3191,
    ("abstract", True, False, 6): 6324,
    ("abstract", True, False, 7): 3915,
    ("abstract", True, False, 8): 4771,
    ("abstract", True, False, 9): 4430,
    ("abstract", True, False, 10): 3808,
    ("abstract", True, False, 11): 2697,
    ("abstract", True, False, 12): 4519,
    ("abstract", True, False, 13): 1833,
    ("abstract", True, False, 14): 1794,
    ("abstract", True, False, 15): 2156,
    ("abstract", True, True, 2): 1889,
    ("abstract", True, True, 3): 1225,
    ("abstract", True, True, 4): 443,
    ("abstract", True, True, 5): 210,
    ("abstract", True, True, 6): 68,
    ("abstract", True, True, 7): 24,
    ("abstract", True, True, 8): 8,
    ("abstract", True, True, 9): 1,
    ("abstract", True, True, 10): 1,
    ("real_line", False, False, 3): 7111,
    ("real_line", False, False, 5): 11504,
    ("real_line", False, False, 7): 11863,
    ("real_line", False, True, 1): 13977,
    ("real_line", False, True, 3): 5242,
    ("real_line", False, True, 5): 711,
    ("real_line", False, True, 7): 74,
    ("real_line", True, False, 3): 2705,
    ("real_line", True, False, 5): 5851,
    ("real_line", True, False, 7): 6187,
    ("real_line", True, False, 9): 5461,
    ("real_line", True, False, 11): 10396,
    ("real_line", True, False, 13): 5154,
    ("real_line", True, False, 15): 8444,
    ("real_line", True, True, 3): 2819,
    ("real_line", True, True, 5): 1365,
    ("real_line", True, True, 7): 466,
    ("real_line", True, True, 9): 115,
    ("real_line", True, True, 11): 20,
    ("real_line", True, True, 13): 7,
    ("real_line", True, True, 15): 3,
}


@dataclass(frozen=True)
class Document:
    data: dict
    kind: str
    refined: bool
    graded: bool
    pieces: int
    period_lcm: int

    @property
    def cell(self) -> tuple[str, bool, bool, int]:
        return self.kind, self.refined, self.graded, self.pieces


def _orbits(perm: list[int], ids) -> list[list[int]]:
    """Cycles of ``perm`` through ``ids``, each from its least element."""
    seen: set[int] = set()
    orbits = []
    for start in ids:
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            orbit.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        orbits.append(orbit)
    return orbits


def period_lcm(perm: list[int]) -> int:
    return math.lcm(*(len(o) for o in _orbits(perm, range(len(perm)))))


def _shuffled(rng: random.Random, ids: list[int]) -> list[int]:
    ids = ids[:]
    rng.shuffle(ids)
    return ids


def _lift(rng: random.Random, children: list[list[list[int]]], base_perm: list[int]) -> list[int]:
    """A random refined map carrying each kind group of the children of b onto that of perm(b)."""
    perm = [0] * sum(len(g) for groups in children for g in groups)
    for b, groups in enumerate(children):
        for group, target in zip(groups, children[base_perm[b]]):
            for src, dst in zip(group, _shuffled(rng, target)):
                perm[src] = dst
    return perm


def _evenly_spaced(lo: int | None, hi: int | None, count: int) -> list[Fraction]:
    """``count`` rationals strictly inside (lo, hi), by the package's documented rule."""
    if lo is None and hi is None:
        return [Fraction(j) for j in range(1, count + 1)]
    if lo is None:
        return [Fraction(hi - count - 1 + j) for j in range(1, count + 1)]
    if hi is None:
        return [Fraction(lo + j) for j in range(1, count + 1)]
    return [lo + Fraction(hi - lo, count + 1) * j for j in range(1, count + 1)]


def _real_line(rng: random.Random) -> tuple[dict, list[int]]:
    n = rng.randint(0, 3)
    jumps = sorted(rng.sample(range(10), n))
    # intervals 0..n, then jump points n+1..2n, each kind among itself
    base_perm = _shuffled(rng, list(range(n + 1))) + _shuffled(rng, list(range(n + 1, 2 * n + 1)))
    unrefined = {"type": "real_line", "jump_points": [str(t) for t in jumps], "perm": base_perm}
    if rng.random() < UNREFINED_SHARE:
        return unrefined, base_perm
    budget = (MAX_PIECES - 2 * n - 1) // 2
    counts = [0] * (n + 1)
    for orbit in _orbits(base_perm, range(n + 1)):
        cap = budget // len(orbit)
        count = rng.randint(0, min(2, cap)) if cap > 0 else 0
        budget -= count * len(orbit)
        for a in orbit:
            counts[a] = count
    if not any(counts):
        return unrefined, base_perm
    added = [
        _evenly_spaced(jumps[a - 1] if a else None, jumps[a] if a < n else None, counts[a])
        for a in range(n + 1)
    ]
    # refined ids: every subinterval left to right, then every jump point by value
    subs, next_id = [], 0
    for a in range(n + 1):
        subs.append(list(range(next_id, next_id + counts[a] + 1)))
        next_id += counts[a] + 1
    points: list[list[int]] = [[] for _ in range(n + 1)]
    base_points = []
    for a in range(n + 1):
        for _ in added[a]:
            points[a].append(next_id)
            next_id += 1
        if a < n:
            base_points.append(next_id)
            next_id += 1
    children = [[subs[a], points[a]] for a in range(n + 1)] + [[[], [p]] for p in base_points]
    fine = _lift(rng, children, base_perm)
    doc = {
        "type": "real_line",
        "jump_points": [str(t) for t in jumps],
        "additions": {str(a): [str(s) for s in added[a]] for a in range(n + 1) if added[a]},
        "base_perm": base_perm,
        "refined_perm": fine,
    }
    return doc, fine


def _abstract(rng: random.Random) -> tuple[dict, list[int]]:
    n = rng.randint(1, 6)
    base_perm = _shuffled(rng, list(range(n)))
    unrefined = {"type": "abstract", "pieces": n, "perm": base_perm}
    if rng.random() < UNREFINED_SHARE:
        return unrefined, base_perm
    cells = [0] * n
    budget, still_needed = MAX_PIECES, n
    for orbit in _orbits(base_perm, range(n)):
        still_needed -= len(orbit)
        cap = (budget - still_needed) // len(orbit)
        size = rng.randint(1, max(1, min(3, cap)))
        budget -= size * len(orbit)
        for b in orbit:
            cells[b] = size
    if max(cells) == 1:
        return unrefined, base_perm
    children, next_id = [], 0
    for b in range(n):
        children.append([list(range(next_id, next_id + cells[b]))])
        next_id += cells[b]
    fine = _lift(rng, children, base_perm)
    doc = {
        "type": "abstract",
        "pieces": n,
        "cells": {str(b): cells[b] for b in range(n)},
        "base_perm": base_perm,
        "refined_perm": fine,
    }
    return doc, fine


def draw(rng: random.Random) -> Document:
    """One document from the source distribution; half on the line, half abstract."""
    kind = "real_line" if rng.random() < 0.5 else "abstract"
    data, fine = (_real_line if kind == "real_line" else _abstract)(rng)
    data["window"] = WINDOW
    # an identity fine map is exactly the strongly graded case
    return Document(data, kind, "refined_perm" in data, fine == sorted(fine), len(fine), period_lcm(fine))


def quotas(count: int) -> dict[tuple[str, bool, bool, int], int]:
    """Documents per cell: the cell's source share of ``count``, by largest remainder."""
    total = sum(SOURCE_COUNTS.values())
    out = {cell: count * n // total for cell, n in SOURCE_COUNTS.items()}
    by_remainder = sorted(SOURCE_COUNTS, key=lambda cell: -(count * SOURCE_COUNTS[cell] % total))
    for cell in by_remainder[: count - sum(out.values())]:
        out[cell] += 1
    return {cell: n for cell, n in out.items() if n}


def generate(seed: int) -> list[Document]:
    """``DOCUMENTS`` documents, each cell filled to its quota, in a seeded order."""
    rng = random.Random(seed)
    wanted = quotas(DOCUMENTS)
    docs = []
    while len(docs) < DOCUMENTS:
        doc = draw(rng)
        if wanted.get(doc.cell, 0):
            wanted[doc.cell] -= 1
            docs.append(doc)
    rng.shuffle(docs)
    return docs


def _bucket(value: int, edges: tuple[int, ...]) -> str:
    lower = edges[0]
    for edge in edges[1:]:
        if value < edge:
            return str(lower) if edge - 1 == lower else f"{lower}-{edge - 1}"
        lower = edge
    return f"{lower}+"


def shares(docs: list[Document]) -> dict[str, dict[str, float]]:
    """Share of the stream for each value of each cost-relevant property."""
    props = {
        "pieces": lambda d: _bucket(d.pieces, (1, 4, 7, 10, 13)),
        "period_lcm": lambda d: _bucket(d.period_lcm, (1, 2, 3, 5, 9)),
        "refined": lambda d: str(d.refined).lower(),
        "strongly_graded": lambda d: str(d.graded).lower(),
        "kind": lambda d: d.kind,
    }
    out = {}
    for name, key in props.items():
        counts = Counter(key(d) for d in docs)
        out[name] = {k: counts[k] / len(docs) for k in sorted(counts)}
    return out
