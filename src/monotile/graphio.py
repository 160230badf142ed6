"""Two-column text format for graphs and colored graphs.

Line 1 is `n m`, then m edge lines: `u v` for uncolored graphs, `u v c` with
c in {r, b} for colored ones.  `#` starts a comment line.  Writers emit edges
in canonical order (u < v, lexicographically sorted).

The reader works on whole columns.  Its bulk pass takes a text in the
writers' own shape, checked by one regular expression: an `n m` header, then
rows that are all `u v` or all `u v c`, in ASCII digits with one space
between fields.  It splits the whole text once, slices the tokens into
columns, converts each distinct vertex token with one int() call, and hands
the columns to the graph builders, which check ranges, loops and repeats in
bulk.  Any other text (a comment, a blank line, other spacing, or a defect)
goes to the line-by-line reader, which skips comments and blank lines, names
the line of the first defect, and hands its checked rows to the same
builders, so every text gives the same graph, or the same error naming the
same line or edge, as a line-by-line reader alone.

Both writers share one row writer, which emits one row per vertex: the
vertex's label, then the tails of its higher neighbours (label, and colour
for a coloured graph) picked by the bits of its masks.
"""

from __future__ import annotations

import re
from itertools import compress
from operator import getitem
from typing import Callable

from .graphs import (
    BLUE,
    RED,
    SPARSE_SPAN,
    ColoredGraph,
    Graph,
    build_colored_graph,
    flags,
    iter_bits,
)

# The shape the writers emit: an `n m` header and at least one edge row, the
# rows all `u v` or all `u v c`, in ASCII digits, one space between fields
# and a newline after every line.
_DUMPED = re.compile(r"[0-9]+ [0-9]+\n(?:(?:[0-9]+ [0-9]+\n)+|(?:[0-9]+ [0-9]+ [rb]\n)+)")


class FormatError(ValueError):
    """Malformed graph text."""


def dump_graph(g: Graph) -> str:
    return _dump(g, [(str(v),) for v in range(g.n)], lambda u: 0)


def dump_colored_graph(cg: ColoredGraph) -> str:
    return _dump(cg.graph, [(f"{v} {BLUE}", f"{v} {RED}") for v in range(cg.n)], cg.red_mask)


def _dump(g: Graph, tails: list[tuple[str, ...]], red_mask: Callable[[int], int]) -> str:
    """The rows of g's edges: the tail of the edge uv, u < v, is tails[v][1]
    when bit v of red_mask(u) is set, else tails[v][0]."""
    lines = [f"{g.n} {g.num_edges}"]
    for u in range(g.n):
        above = g.neighbors_mask(u) >> (u + 1)
        if not above:
            continue
        red = red_mask(u)
        width = above.bit_length()
        # a row picks the tails of the vertices it spans by one flag each,
        # unless it is sparse
        if width > SPARSE_SPAN * above.bit_count():
            row = (tails[v][red >> v & 1] for v in iter_bits(above << (u + 1)))
        else:
            picked = flags(above, width)
            is_red = compress(flags(red >> (u + 1), width), picked)
            row = map(getitem, compress(tails[u + 1 : u + 1 + width], picked), is_red)
        head = f"{u} "
        lines.append(head + ("\n" + head).join(row))
    return "\n".join(lines) + "\n"


def load_graph_text(text: str):
    """Parse the text format; returns Graph or ColoredGraph by column count."""
    graph = _read_dumped(text)
    return _read_lines(text) if graph is None else graph


def _read_dumped(text: str):
    """The bulk pass: the graph of a text in the writers' shape, None for any
    other text."""
    if _DUMPED.fullmatch(text) is None:
        return None
    tokens = text.split()
    rows = text.count("\n") - 1
    n, m = int(tokens[0]), int(tokens[1])
    if m != rows:
        return None
    width = (len(tokens) - 2) // rows
    return _build(n, [tokens[2 + i :: width] for i in range(width)])


def _read_lines(text: str):
    """The line-by-line reader: skips comments and blank lines, names the
    line of the first defect, and hands the checked rows to the builders."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line.split()))
    if not rows:
        raise FormatError("empty graph file")
    lineno, header = rows[0]
    if len(header) != 2:
        raise FormatError(f"line {lineno}: header must be `n m`")
    n, m = (_int(lineno, tok) for tok in header)
    body = rows[1:]
    if len(body) != m:
        raise FormatError(f"expected {m} edge lines, found {len(body)}")
    if not body:
        return Graph(n)
    width = 3 if len(body[0][1]) == 3 else 2
    for lineno, cols in body:
        if len(cols) != width:
            raise FormatError(f"line {lineno}: inconsistent edge columns")
        for token in cols[:2]:
            _int(lineno, token)
        if width == 3 and cols[2] not in (RED, BLUE):
            raise FormatError(f"line {lineno}: color must be r or b, got {cols[2]!r}")
    return _build(n, list(zip(*(cols for _, cols in body))))


def _build(n: int, columns: list):
    """The graph of checked columns: the endpoint tokens, then the colours of
    a coloured graph.  Errors from the graph builders are raised as
    FormatError, here only."""
    # int() once per distinct vertex token, then a lookup per endpoint
    value = {token: int(token) for token in {*columns[0], *columns[1]}}
    us = list(map(value.__getitem__, columns[0]))
    vs = list(map(value.__getitem__, columns[1]))
    try:
        if len(columns) == 2:
            return Graph.from_columns(n, us, vs)
        return ColoredGraph.from_columns(n, us, vs, columns[2])
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def load_colored_graph(text: str) -> ColoredGraph:
    g = load_graph_text(text)
    if isinstance(g, ColoredGraph):
        return g
    if g.num_edges == 0:
        # edgeless files carry no color column; the colored reading is unique
        return build_colored_graph(g.n, [])
    raise FormatError("expected a colored graph (edge lines `u v c`)")


def load_graph(text: str) -> Graph:
    g = load_graph_text(text)
    if isinstance(g, ColoredGraph):
        raise FormatError("expected an uncolored graph (edge lines `u v`)")
    return g


def _int(lineno: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"line {lineno}: bad integer {token!r}") from None
