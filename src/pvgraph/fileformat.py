"""Line-based text format for route sets.

    pvg 1
    mode anonymous|ids
    sites <n> <name> <name> ...
    carrier <id> : <site> <site> ...

`#` starts a comment line; blank lines are ignored. The serializer emits a
single canonical spelling (single spaces, trailing newline) so output files
can be compared byte for byte.
"""
from __future__ import annotations

import re
from pathlib import Path

from .core import ANONYMOUS, IDS, Carrier, Route, RouteSet
from .errors import ParseError

_TOKEN = re.compile(r"\S+")


def _tokens(line: str) -> list[tuple[str, int]]:
    """Tokens with their 1-based starting columns."""
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]


def loads(text: str) -> RouteSet:
    """Parse the canonical format; errors carry 1-based line and column."""
    lines = text.split("\n")
    content = [
        (i + 1, _tokens(raw))
        for i, raw in enumerate(lines)
        if raw.strip() and not raw.lstrip().startswith("#")
    ]
    if not content:
        raise ParseError("empty file", 1)

    def expect(index: int, what: str) -> tuple[int, list[tuple[str, int]]]:
        if index >= len(content):
            raise ParseError(f"missing {what}", len(lines))
        return content[index]

    ln, toks = expect(0, "header line 'pvg 1'")
    if [t for t, _ in toks] != ["pvg", "1"]:
        raise ParseError("expected header 'pvg 1'", ln, toks[0][1])

    ln, toks = expect(1, "mode line")
    if len(toks) != 2 or toks[0][0] != "mode":
        raise ParseError("expected 'mode anonymous' or 'mode ids'", ln, toks[0][1])
    mode = toks[1][0]
    if mode not in (ANONYMOUS, IDS):
        raise ParseError(f"unknown mode {mode!r}", ln, toks[1][1])

    ln, toks = expect(2, "sites line")
    if len(toks) < 2 or toks[0][0] != "sites":
        raise ParseError("expected 'sites <n> <names...>'", ln, toks[0][1])
    try:
        n = int(toks[1][0])
    except ValueError:
        raise ParseError(f"site count {toks[1][0]!r} is not an integer", ln, toks[1][1]) from None
    if n < 1:
        raise ParseError("site count must be positive", ln, toks[1][1])
    names = toks[2:]
    if len(names) != n:
        raise ParseError(f"expected {n} site names, found {len(names)}", ln,
                         names[0][1] if names else toks[1][1])
    sites = []
    seen = set()
    for name, col in names:
        if name in seen:
            raise ParseError(f"duplicate site {name!r}", ln, col)
        seen.add(name)
        sites.append(name)

    carriers = []
    cids = set()
    for ln, toks in content[3:]:
        if toks[0][0] != "carrier":
            raise ParseError(f"expected 'carrier', found {toks[0][0]!r}", ln, toks[0][1])
        if len(toks) < 4 or toks[2][0] != ":":
            raise ParseError("expected 'carrier <id> : <site>...'", ln,
                             toks[2][1] if len(toks) > 2 else toks[-1][1])
        cid, ccol = toks[1]
        if cid in cids:
            raise ParseError(f"duplicate carrier {cid!r}", ln, ccol)
        cids.add(cid)
        route = []
        for site, col in toks[3:]:
            if site not in seen:
                raise ParseError(f"unknown site {site!r}", ln, col)
            route.append(site)
        carriers.append(Carrier(cid, Route(tuple(route))))
    if not carriers:
        raise ParseError("no carrier lines", content[-1][0])

    return RouteSet(tuple(carriers), mode, tuple(sites))


def dumps(routeset: RouteSet) -> str:
    lines = [
        "pvg 1",
        f"mode {routeset.mode}",
        "sites " + " ".join([str(routeset.n), *routeset.sites]),
    ]
    for c in routeset.carriers:
        lines.append(f"carrier {c.id} : " + " ".join(c.route.sites))
    return "\n".join(lines) + "\n"


def load(path: str | Path) -> RouteSet:
    return loads(Path(path).read_text(encoding="utf-8"))


def dump(routeset: RouteSet, path: str | Path) -> None:
    Path(path).write_text(dumps(routeset), encoding="utf-8")


def read_bound_comment(text: str) -> int | None:
    """Extract the lower bound a generator appended as `# bound <value>`."""
    for raw in text.split("\n"):
        stripped = raw.strip()
        if stripped.startswith("#"):
            parts = stripped[1:].split()
            if len(parts) == 2 and parts[0] == "bound":
                try:
                    return int(parts[1])
                except ValueError:
                    continue
    return None
