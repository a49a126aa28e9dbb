"""Rules that define the fixed parameter grids of the `audit` and `build` workloads.

Finding the legal points means calling the generators, which takes seconds, so
the result is stored in `corpus.json` and read at set-up. Regenerate it with

    python3 bench/corpus.py

The benchmark's own tests check that the stored file still follows these rules.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS_FILE = HERE / "corpus.json"

#: The oracle's default state cap; audit points must fit it (see README).
DENSE_CAP = 1 << 22

#: Period lists of the wide `build` systems (n = 60, k = 4, p up to 3000),
#: drawn once with a fixed generator: about 29M lcm phases in all, and one
#: pair of 3.9M phases that sets the peak. Not drawn from the workload seed:
#: with seeded periods the summed lcm of a pass swings by about a quarter
#: between seeds and would swamp every bound. The seed places the sites.
WIDE_PERIODS = [
    [3000, 2618, 1110, 825],
    [2800, 2478, 2088, 1316],
    [2600, 1494, 1164, 702],
    [2400, 1900, 1662, 1308],
    [2200, 987, 696, 638],
    [2000, 1132, 845, 698],
    [1800, 1509, 1311, 591],
    [1600, 1166, 1018, 518],
]


def _legal(pv, family, ns, ks, ps=lambda n: (None,)):
    out = []
    for n in ns:
        for k in ks(n):
            for p in ps(n):
                try:
                    inst = pv.make_instance(family, n, k, p)
                except pv.PVGraphError:
                    continue
                out.append(([family, n, k, p], inst))
    return out


def dense_states(rs) -> int:
    """The oracle's dense state count k * lcm(periods) * 2^n."""
    return rs.k * math.lcm(*(c.route.period for c in rs.carriers)) * (1 << rs.n)


def audit_points(pv) -> list[list]:
    """Every legal thm3/thm4 point with n <= 21, p <= 11 and every legal
    thm7/thm8/siho point with n <= 23 whose dense space fits the cap."""
    small = lambda n: range(2, n // 2 + 1)
    cands = (
        _legal(pv, "thm3", range(9, 22), lambda n: range(3, n // 3 + 1), lambda n: range(1, 12))
        + _legal(pv, "thm4", range(9, 22), lambda n: range(3, n // 3 + 1), lambda n: range(1, 12))
        + _legal(pv, "thm7", range(4, 24), small)
        + _legal(pv, "thm8", range(7, 24), lambda n: range(3, n // 2 + 1))
        + _legal(pv, "siho", range(4, 24), small)
    )
    return [pt for pt, inst in cands if dense_states(inst.routeset) <= DENSE_CAP]


def build_points(pv) -> list[list]:
    """Every legal siho point up to n = 40 and sihe point up to n = 60, plus
    strided thm3/thm4/thm7/thm8 grids up to n = 60."""
    cands = (
        _legal(pv, "siho", range(4, 41), lambda n: range(2, n // 2 + 1))
        + _legal(pv, "sihe", range(36, 61), lambda n: range(4, n // 6 - 1))
        + _legal(pv, "thm3", range(9, 61, 7), lambda n: range(3, n // 3 + 1, 3), lambda n: range(6, 61, 15))
        + _legal(pv, "thm4", range(9, 61, 7), lambda n: range(3, n // 3 + 1, 3), lambda n: range(6, 61, 15))
        + _legal(pv, "thm7", range(4, 61, 4), lambda n: range(2, n // 2 + 1, 3))
        + _legal(pv, "thm8", range(7, 61, 3), lambda n: range(3, n // 2 + 1, 4))
    )
    return [pt for pt, _ in cands]


def derive(pv) -> dict:
    return {"audit": audit_points(pv), "build": build_points(pv)}


def load() -> dict:
    return json.loads(CORPUS_FILE.read_text())


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    import pvgraph

    data = derive(pvgraph)
    text = "{\n" + ",\n".join(
        f' "{key}": [\n' + ",\n".join("  " + json.dumps(pt) for pt in pts) + "\n ]"
        for key, pts in data.items()
    ) + "\n}\n"
    CORPUS_FILE.write_text(text)
    print({key: len(pts) for key, pts in data.items()})
