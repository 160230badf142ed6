"""Two-column text format for graphs and colored graphs.

Line 1 is `n m`, then m edge lines: `u v` for uncolored graphs, `u v c` with
c in {r, b} for colored ones.  `#` starts a comment line.  Writers emit edges
in canonical order (u < v, lexicographically sorted).

The reader works on whole columns.  Its bulk pass splits every line, checks
that the header has two fields and every edge line the same two or three,
transposes the edge lines into columns, converts each distinct vertex token
with one int() call and checks the colour column by counting, then hands the
columns to the graph builders, which check ranges, loops and repeats in bulk.
A file with a comment, a blank line or any defect is refused by the bulk pass
and read again line by line, so every text gives the same graph, or the same
error naming the same line or edge, as a line-by-line reader alone.  The
writers emit one row per vertex: the vertex's label, then its higher
neighbours picked from precomputed labels by the bits of its mask.
"""

from __future__ import annotations

from itertools import compress
from operator import getitem

from .graphs import BLUE, RED, ColoredGraph, Graph, build_colored_graph, iter_bits

_BITS = bytes.maketrans(b"01", b"\0\1")
# A writer's row picks the labels of the vertices it spans by one 0/1 flag
# each, which costs O(span).  A row that spans more than this many vertices
# per edge steps through its bits instead, so no row costs more than a
# constant times its edges in flags, or more than a bit loop.
_SPARSE_ROW = 32


class FormatError(ValueError):
    """Malformed graph text."""


def dump_graph(g: Graph) -> str:
    labels = list(map(str, range(g.n)))
    lines = [f"{g.n} {g.num_edges}"]
    for u in range(g.n):
        above = g.neighbors_mask(u) >> (u + 1)
        if not above:
            continue
        width = above.bit_length()
        if width > _SPARSE_ROW * above.bit_count():
            row = map(labels.__getitem__, iter_bits(above << (u + 1)))
        else:
            row = compress(labels[u + 1 : u + 1 + width], _flags(above, width))
        lines.append(_row(labels[u], row))
    return "\n".join(lines) + "\n"


def dump_colored_graph(cg: ColoredGraph) -> str:
    # the tail of an edge to v: tails[v][0] when the edge is blue, [1] when red
    tails = [(f"{v} {BLUE}", f"{v} {RED}") for v in range(cg.n)]
    lines = [f"{cg.n} {cg.graph.num_edges}"]
    for u in range(cg.n):
        above = cg.graph.neighbors_mask(u) >> (u + 1)
        if not above:
            continue
        red = cg.red_mask(u)
        width = above.bit_length()
        if width > _SPARSE_ROW * above.bit_count():
            row = (tails[v][red >> v & 1] for v in iter_bits(above << (u + 1)))
        else:
            picked = _flags(above, width)
            is_red = compress(_flags(red >> (u + 1), width), picked)
            row = map(getitem, compress(tails[u + 1 : u + 1 + width], picked), is_red)
        lines.append(_row(str(u), row))
    return "\n".join(lines) + "\n"


def _flags(mask: int, width: int) -> bytes:
    """Bits 0..width-1 of mask, lowest first, one 0 or 1 byte each."""
    return bin(mask | 1 << width)[:2:-1].encode().translate(_BITS)


def _row(label: str, tails) -> str:
    """The edge lines of one vertex: its label and a space before each tail."""
    head = label + " "
    return head + ("\n" + head).join(tails)


def load_graph_text(text: str):
    """Parse the text format; returns Graph or ColoredGraph by column count."""
    graph = _read_columns(text)
    return _read_lines(text) if graph is None else graph


def _read_columns(text: str):
    """The bulk pass: the graph of a file without comments, blank lines or
    defects, None for any other text.  Errors from the graph builders are
    the same as the line-by-line reader's, since both hand them on."""
    rows = list(map(str.split, text.splitlines()))
    if len(rows) < 2 or len(rows[0]) != 2:
        return None
    body = rows[1:]
    widths = set(map(len, body))
    if widths != {2} and widths != {3}:
        return None
    columns = list(zip(*body))
    # int() once per distinct vertex token, then a lookup per endpoint
    tokens = {*columns[0], *columns[1]}
    try:
        n, m = map(int, rows[0])
        value = dict(zip(tokens, map(int, tokens)))
    except ValueError:
        return None
    if m != len(body):
        return None
    us = list(map(value.__getitem__, columns[0]))
    vs = list(map(value.__getitem__, columns[1]))
    try:
        if len(columns) == 2:
            return Graph.from_columns(n, us, vs)
        colors = columns[2]
        if colors.count(RED) + colors.count(BLUE) != m:
            return None
        return ColoredGraph.from_columns(n, us, vs, colors)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _read_lines(text: str):
    """The line-by-line reader: skips comments and blank lines, and names
    the line of the first defect."""
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
    colored = len(body[0][1]) == 3
    edges = []
    for lineno, cols in body:
        if len(cols) != (3 if colored else 2):
            raise FormatError(f"line {lineno}: inconsistent edge columns")
        u, v = _int(lineno, cols[0]), _int(lineno, cols[1])
        if colored:
            c = cols[2]
            if c not in (RED, BLUE):
                raise FormatError(f"line {lineno}: color must be r or b, got {c!r}")
            edges.append((u, v, c))
        else:
            edges.append((u, v))
    try:
        if colored:
            return build_colored_graph(n, edges)
        return Graph(n, edges)
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
