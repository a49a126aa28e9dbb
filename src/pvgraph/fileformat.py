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
    """Parse the canonical format; errors carry 1-based line and column.

    Lines are split with `str.split()`, which splits on exactly the
    characters `_TOKEN` does; a token's column is worked out only when an
    error names it. A route site the sites line does not declare is caught
    by `RouteSet`'s own check, so each slot is read once; the carrier lines
    are searched for it only when an error is raised, so that the first
    error in file order is the one reported.
    """
    lines = text.split("\n")
    content = []
    for i, raw in enumerate(lines):
        toks = raw.split()
        if toks and not toks[0].startswith("#"):
            content.append((i + 1, toks))
    if not content:
        raise ParseError("empty file", 1)

    def expect(index: int, what: str) -> tuple[int, list[str]]:
        if index >= len(content):
            raise ParseError(f"missing {what}", len(lines))
        return content[index]

    def fail(message: str, ln: int, index: int) -> ParseError:
        """The error naming token `index` of line `ln`, at that token's column."""
        return ParseError(message, ln, _tokens(lines[ln - 1])[index][1])

    ln, toks = expect(0, "header line 'pvg 1'")
    if toks != ["pvg", "1"]:
        raise fail("expected header 'pvg 1'", ln, 0)

    ln, toks = expect(1, "mode line")
    if len(toks) != 2 or toks[0] != "mode":
        raise fail("expected 'mode anonymous' or 'mode ids'", ln, 0)
    mode = toks[1]
    if mode not in (ANONYMOUS, IDS):
        raise fail(f"unknown mode {mode!r}", ln, 1)

    ln, toks = expect(2, "sites line")
    if len(toks) < 2 or toks[0] != "sites":
        raise fail("expected 'sites <n> <names...>'", ln, 0)
    try:
        n = int(toks[1])
    except ValueError:
        raise fail(f"site count {toks[1]!r} is not an integer", ln, 1) from None
    if n < 1:
        raise fail("site count must be positive", ln, 1)
    sites = toks[2:]
    if len(sites) != n:
        raise fail(f"expected {n} site names, found {len(sites)}", ln, 2 if sites else 1)
    universe = set(sites)
    if len(universe) != n:
        first = {}  # name -> index of its first appearance
        i = next(i for i, name in enumerate(sites) if first.setdefault(name, i) != i)
        raise fail(f"duplicate site {sites[i]!r}", ln, i + 2)

    def unknown_site(before: int) -> ParseError | None:
        """The error at the first undeclared site on a carrier line above line `before`."""
        for ln, toks in content[3:]:
            if ln >= before:
                break
            for i, site in enumerate(toks[3:], 3):
                if site not in universe:
                    return fail(f"unknown site {site!r}", ln, i)
        return None

    carriers = []
    cids = set()
    try:
        for ln, toks in content[3:]:
            if toks[0] != "carrier":
                raise fail(f"expected 'carrier', found {toks[0]!r}", ln, 0)
            if len(toks) < 4 or toks[2] != ":":
                raise fail("expected 'carrier <id> : <site>...'", ln, min(2, len(toks) - 1))
            cid = toks[1]
            if cid in cids:
                raise fail(f"duplicate carrier {cid!r}", ln, 1)
            cids.add(cid)
            carriers.append(Carrier(cid, Route(tuple(toks[3:]))))
        if not carriers:
            raise ParseError("no carrier lines", content[-1][0])
        return RouteSet(tuple(carriers), mode, tuple(sites))
    except (ParseError, ValueError) as err:  # RouteSet's: a route site missing from the universe
        raise unknown_site(getattr(err, "line", len(lines) + 1)) or err from None


def dumps(routeset: RouteSet) -> str:
    lines = [
        "pvg 1",
        f"mode {routeset.mode}",
        "sites " + " ".join([str(routeset.n), *routeset.sites]),
    ]
    for c in routeset.carriers:
        lines.append(f"carrier {c.id} : " + " ".join(c.route.sites))
    return "\n".join(lines) + "\n"


def read_text(path: str | Path) -> str:
    """A file's text as UTF-8, with CRLF and CR read as LF, as `Path.read_text` does.

    Bytes that are not UTF-8 are a ParseError at the line and column of the first.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = _universal_newlines(data[:exc.start].decode("utf-8"))
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not valid UTF-8",
                         head.count("\n") + 1, len(head) - head.rfind("\n")) from None
    return _universal_newlines(text)


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load(path: str | Path) -> RouteSet:
    return loads(read_text(path))


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
