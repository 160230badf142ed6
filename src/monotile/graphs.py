"""Colored-graph core: bitmask adjacency, color-class views, triangle scans.

Vertices are dense ids 0..n-1 and every vertex set is a Python int used as a
bit vector, so neighborhood intersections are single AND operations.  Graphs
and colorings are immutable after construction.

The package's result records (Triangle, Tiling and those of the other
modules) are plain classes on one base, Record, defined here because every
other module imports this one first.  Their methods are shared, not
generated, so making a record class runs no generated code at import.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Iterable, Iterator, Optional, Sequence

RED = "r"
BLUE = "b"
MIXED = "mixed"

WEAK = "weak"
STRONG = "strong"

MODES = (WEAK, STRONG)


class GraphError(ValueError):
    """Invalid graph construction input."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class VertexOutOfRangeError(GraphError):
    pass


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_BITS = bytes.maketrans(b"01", b"\0\1")
# Reading a mask by one 0/1 flag per position costs O(span) in C.  A mask
# that spans more than this many positions per set bit is walked by iter_bits
# instead, so no walk costs more than a constant times its bits in flags, or
# more than a bit loop.
SPARSE_SPAN = 32


def flags(mask: int, width: int) -> bytes:
    """Bits 0..width-1 of mask, lowest first, one 0 or 1 byte each."""
    return bin(mask | 1 << width)[:2:-1].encode().translate(_BITS)


def set_bits(mask: int) -> Iterable[int]:
    """The set bit positions of mask in ascending order, as iter_bits yields
    them; a dense mask is picked from its flags, with no Python step per bit."""
    width = mask.bit_length()
    if width > SPARSE_SPAN * mask.bit_count():
        return iter_bits(mask)
    return compress(range(width), flags(mask, width))


class DepthFirst:
    """Depth-first search on an explicit stack of lazy child frames, shared
    by the package's three branch-and-bounds.

    Iterating yields the open nodes, root first.  push(children) on a yielded
    node makes its children, any iterable, the next frame; they are drawn one
    at a time as the search reaches them, so children that a budget or a
    prune never reaches are never built.  A node without a push is pruned.
    The stack is explicit, so depth is not bound by the recursion limit.
    Budgets count expansions: .nodes counts the nodes drawn, and the search
    stops when it draws node budget + 1, without yielding it, and sets .exact
    to False.  Breaking out of the loop leaves .exact as it is.
    """

    def __init__(self, root, budget: Optional[int] = None):
        self.nodes = 0
        self.exact = True
        self._budget = budget
        self._frames = [iter((root,))]

    def push(self, children: Iterable) -> None:
        self._frames.append(iter(children))

    def __iter__(self) -> Iterator:
        frames = self._frames
        while frames:
            node = next(frames[-1], frames)  # frames is no node: it marks the end
            if node is frames:
                frames.pop()
                continue
            self.nodes += 1
            if self._budget is not None and self.nodes > self._budget:
                self.exact = False
                return
            yield node


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        edges = list(edges)
        columns = _columns(edges, 2)
        self.n = n
        if columns is None:
            self._adj = _colored_edge_by_edge(n, ((u, v, BLUE) for u, v in edges)).graph._adj
        else:
            self._adj = _pair_masks(n, *columns)

    @classmethod
    def from_columns(cls, n: int, us: Sequence[int], vs: Sequence[int]) -> "Graph":
        """Graph(n, zip(us, vs)), built from the two endpoint columns."""
        return cls._from_adj(n, _pair_masks(n, us, vs))

    @classmethod
    def _from_adj(cls, n: int, adj: list[int]) -> "Graph":
        # trusted constructor: adj must already be symmetric and loop-free
        g = cls.__new__(cls)
        g.n = n
        g._adj = adj
        return g

    def neighbors_mask(self, v: int) -> int:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def min_degree(self) -> int:
        if self.n == 0:
            raise GraphError("minimum degree of the empty graph is undefined")
        return min(m.bit_count() for m in self._adj)

    def has_edge(self, u: int, v: int) -> bool:
        _check_edge(self.n, u, v)
        return bool(self._adj[u] >> v & 1)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(edges_inside(self._adj, (1 << self.n) - 1))

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self):
        return hash((self.n, tuple(self._adj)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def _check_edge(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
    if u == v:
        raise SelfLoopError(f"self-loop at {u}")


# The builders below check an edge list in bulk: the endpoint columns against
# 0..n-1, then one OR loop, then the degree sum, which a loop or a repeated
# edge leaves short of 2m.  Any failure replays the list edge by edge through
# _colored_edge_by_edge, with each uncoloured edge tagged blue, which raises
# on the first bad edge, so every list gives the same graph or the same error
# as a per-edge check would.  With n < 0 every list fails the range check,
# and the replay's first step, _zeros, rejects n.  Each class keeps its own
# bulk loop: one loop shared by both made coloured builds 30-60% slower.


def _zeros(n: int) -> list[int]:
    """n empty vertex masks; a negative count is a VertexOutOfRangeError and
    one too large to allocate a GraphError."""
    if n < 0:
        raise VertexOutOfRangeError(f"negative vertex count {n}")
    try:
        return [0] * n
    except (MemoryError, OverflowError):
        raise GraphError(f"vertex count {n} is too large") from None


def _columns(rows: Sequence, width: int) -> Optional[tuple[tuple, ...]]:
    """rows transposed into width columns, or None unless every row has
    exactly width entries and there is at least one row."""
    try:
        columns = tuple(zip(*rows, strict=True))
    except (TypeError, ValueError):
        return None
    return columns if len(columns) == width else None


def _in_range(n: int, us: Sequence[int], vs: Sequence[int]) -> bool:
    try:
        return 0 <= min(us) and max(us) < n and 0 <= min(vs) and max(vs) < n
    except (TypeError, ValueError):
        return False


def _endpoints(n: int, us: Sequence[int], vs: Sequence[int]) -> Iterable[int]:
    """The vertices that can carry an edge of the columns: range(n) when n is
    at most the number of endpoints, else the set of endpoints, so a pass
    over them costs O(min(n, m)) and a large edgeless remainder costs none."""
    return range(n) if n <= 2 * len(us) else {*us, *vs}


def _degree_sum(masks: list[int], ends: Iterable[int]) -> int:
    return sum(map(int.bit_count, map(masks.__getitem__, ends)))


def _pair_masks(n: int, us: Sequence[int], vs: Sequence[int]) -> list[int]:
    if _in_range(n, us, vs):
        adj = _zeros(n)
        try:
            for u, v in zip(us, vs):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        except TypeError:
            pass
        else:
            if _degree_sum(adj, _endpoints(n, us, vs)) == 2 * len(us):
                return adj
    return _colored_edge_by_edge(n, zip(us, vs, repeat(BLUE))).graph._adj


class ColoredGraph:
    """Graph with a total red/blue edge coloring.

    The red and blue edge sets partition E(G); partial colorings are rejected
    at construction.
    """

    __slots__ = ("graph", "_red", "_blue")

    def __init__(self, graph: Graph, red: list[int], blue: list[int]):
        self.graph = graph
        self._red = red
        self._blue = blue

    @classmethod
    def from_columns(
        cls, n: int, us: Sequence[int], vs: Sequence[int], colors: Sequence[str]
    ) -> "ColoredGraph":
        """build_colored_graph(n, zip(us, vs, colors)), built from the columns."""
        if colors.count(RED) + colors.count(BLUE) == len(colors) and _in_range(n, us, vs):
            # adj before red and blue, as in the per-edge builder: on CPython
            # 3.11 the other order made one edge on 100,000 vertices build
            # about a third slower
            adj = _zeros(n)
            red = _zeros(n)
            blue = _zeros(n)
            try:
                for u, v, color in zip(us, vs, colors):
                    side = red if color == RED else blue
                    side[u] |= 1 << v
                    side[v] |= 1 << u
            except TypeError:
                pass
            else:
                ends = _endpoints(n, us, vs)
                for v in ends:
                    adj[v] = red[v] | blue[v]
                if _degree_sum(adj, ends) == 2 * len(us):
                    return cls(Graph._from_adj(n, adj), red, blue)
        return _colored_edge_by_edge(n, zip(us, vs, colors))

    @property
    def n(self) -> int:
        return self.graph.n

    def red_mask(self, v: int) -> int:
        return self._red[v]

    def blue_mask(self, v: int) -> int:
        return self._blue[v]

    def color_of(self, u: int, v: int) -> str:
        if not self.graph.has_edge(u, v):
            raise GraphError(f"no edge ({u}, {v})")
        return RED if self._red[u] >> v & 1 else BLUE

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColoredGraph) and self.graph == other.graph and self._red == other._red
        )

    def __hash__(self):
        return hash((self.graph, tuple(self._red)))

    def __repr__(self) -> str:
        nred = sum(m.bit_count() for m in self._red) // 2
        return f"ColoredGraph(n={self.n}, red={nred}, blue={self.graph.num_edges - nred})"


def build_colored_graph(n: int, edges: Sequence[tuple[int, int, str]]) -> ColoredGraph:
    """Build a ColoredGraph from (u, v, color) triples.

    Rejects self-loops, duplicate edges (in either order) and colors outside
    {"r", "b"}.
    """
    columns = _columns(edges, 3)
    if columns is None:
        return _colored_edge_by_edge(n, edges)
    return ColoredGraph.from_columns(n, *columns)


def _colored_edge_by_edge(n: int, edges: Iterable[tuple[int, int, str]]) -> ColoredGraph:
    adj = _zeros(n)
    red = _zeros(n)
    blue = _zeros(n)
    for u, v, color in edges:
        _check_edge(n, u, v)
        if adj[u] >> v & 1:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        if color == RED:
            red[u] |= 1 << v
            red[v] |= 1 << u
        elif color == BLUE:
            blue[u] |= 1 << v
            blue[v] |= 1 << u
        else:
            raise GraphError(f"edge color must be {RED!r} or {BLUE!r}, got {color!r}")
    return ColoredGraph(Graph._from_adj(n, adj), red, blue)


def color_class_views(cg: ColoredGraph) -> tuple[Graph, Graph]:
    """Spanning red and blue subgraphs; their edge sets partition E(G)."""
    red = Graph._from_adj(cg.n, list(cg._red))
    blue = Graph._from_adj(cg.n, list(cg._blue))
    return red, blue


# Fields are set one by one, not through self.__dict__: CPython 3.11+ keeps
# an instance's attribute values inline until its __dict__ is first read,
# and reads inline values about three times faster.
_setattr = object.__setattr__


class Record:
    """Base of the package's immutable result records.

    A subclass's fields are its own annotations, in order, after any fields
    of a record base.  A record is built from its fields by position or by
    keyword, each given exactly once; then the class's __post_init__, looked
    up at call time, may check and normalise them.  Records compare and hash
    as their field tuples among records of one class, refuse assignment and
    deletion, and repr as Name(field=value, ...).  These are plain methods of
    this class, so making a record class generates no code.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = cls._fields + tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._arguments(args, kwargs)
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        self.__post_init__()

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> list:
        """The field values in order, from arguments given by position and keyword."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__} got field {name!r} twice")
            values[name] = value
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__} is missing fields {missing}")
        return [values[name] for name in fields]

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Triangle(Record):
    """A vertex triple tagged with its edge-color pattern.

    Mixed triangles are representable for diagnostics but never valid inside
    a Tiling.
    """

    vertices: tuple[int, int, int]
    color: str

    def __post_init__(self):
        a, b, c = sorted(self.vertices)
        if a == b or b == c:
            raise GraphError(f"degenerate triangle {self.vertices}")
        object.__setattr__(self, "vertices", (a, b, c))
        if self.color not in (RED, BLUE, MIXED):
            raise GraphError(f"bad triangle color {self.color!r}")

    @property
    def mask(self) -> int:
        a, b, c = self.vertices
        return 1 << a | 1 << b | 1 << c


def _scanned_triangle(vertices: tuple[int, int, int], color: str) -> Triangle:
    """Triangle record built without __post_init__, for scan_mono_triangles: the scan
    emits sorted, distinct vertices and a RED or BLUE color, which the checks repeat."""
    tri = object.__new__(Triangle)
    object.__setattr__(tri, "vertices", vertices)
    object.__setattr__(tri, "color", color)
    return tri


class Tiling(Record):
    """Vertex-disjoint monochromatic triangles; see verify_tiling for checks."""

    triangles: tuple[Triangle, ...]
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise GraphError(f"bad tiling mode {self.mode!r}")
        object.__setattr__(self, "triangles", tuple(self.triangles))

    @property
    def size(self) -> int:
        return len(self.triangles)

    def __len__(self) -> int:
        return len(self.triangles)


def triangle_color(cg: ColoredGraph, a, b, c) -> Optional[str]:
    """Color of the triple a, b, c: RED or BLUE, MIXED, or None if not a triangle.

    None also covers vertices that are not ints (bools included) in 0..n-1,
    so the result is defined for any input and the call never raises.
    """
    if not all(type(x) is int and 0 <= x < cg.n for x in (a, b, c)):
        return None
    adj = cg.graph._adj
    if not adj[a] >> b & adj[a] >> c & adj[b] >> c & 1:
        return None
    red = cg._red
    reds = (red[a] >> b & 1) + (red[a] >> c & 1) + (red[b] >> c & 1)
    return RED if reds == 3 else BLUE if reds == 0 else MIXED


def scan_mono_pairs(
    cg: ColoredGraph, live: Optional[int] = None
) -> Iterator[tuple[int, int, str, int]]:
    """The triangle scan by edge: (u, v, color, closing) for each edge uv,
    u < v, in lexicographic order, with closing the mask of the w > v that
    make u, v, w a triangle of uv's color; edges closing none are skipped.
    live restricts the scan to an induced vertex subset given as a bitmask."""
    if live is None:
        live = (1 << cg.n) - 1
    red = cg._red
    blue = cg._blue
    for u in iter_bits(live):
        above_u = live >> (u + 1) << (u + 1)
        red_u = red[u] & above_u
        blue_u = blue[u] & above_u
        for v in iter_bits(red_u | blue_u):
            if red_u >> v & 1:
                common, color = red_u & red[v], RED
            else:
                common, color = blue_u & blue[v], BLUE
            closing = common >> (v + 1) << (v + 1)
            if closing:
                yield u, v, color, closing


def scan_mono_triangles(cg: ColoredGraph, live: Optional[int] = None) -> Iterator[Triangle]:
    """The monochromatic triangles within live in canonical order: scan_mono_pairs expanded."""
    for u, v, color, closing in scan_mono_pairs(cg, live):
        for w in iter_bits(closing):
            yield _scanned_triangle((u, v, w), color)


def enumerate_mono_triangles(cg: ColoredGraph) -> list[Triangle]:
    """All monochromatic triangles, canonical order."""
    return list(scan_mono_triangles(cg))


def first_mono_triangle(cg: ColoredGraph, live: Optional[int] = None) -> Optional[Triangle]:
    """Canonically first monochromatic triangle within live, or None."""
    return next(scan_mono_triangles(cg, live), None)


def mono_triangle_witness(
    cg: ColoredGraph,
    u: int,
    v: Optional[int] = None,
    alpha_bound: Optional[int] = None,
) -> Optional[Triangle]:
    """Find a monochromatic triangle through u (or through the pair u, v).

    Single-vertex form: returns a triangle u,x,y with xy inside one of u's
    color neighborhoods, absent when neither N_R(u) nor N_B(u) spans an edge
    of its own color.  Two-vertex form: searches N_R(u) and N_B(v) jointly;
    when alpha_bound is supplied the search only runs if the intersection has
    more than alpha_bound vertices (an independence-number premise that forces
    an edge), and any red edge xy gives the red triangle u,x,y while a blue
    edge xy gives the blue triangle v,x,y.
    """
    n = cg.n
    if not 0 <= u < n:
        raise VertexOutOfRangeError(f"vertex {u} outside 0..{n - 1}")
    if v is None:
        for adj, color in ((cg._red, RED), (cg._blue, BLUE)):
            found = next(edges_inside(adj, adj[u]), None)
            if found is not None:
                return Triangle((u,) + found, color)
        return None
    if not 0 <= v < n:
        raise VertexOutOfRangeError(f"vertex {v} outside 0..{n - 1}")
    if v == u:
        raise GraphError("two-vertex witness needs distinct vertices")
    common = cg._red[u] & cg._blue[v]
    if alpha_bound is not None and common.bit_count() < alpha_bound + 1:
        return None
    # the first edge of G inside common; its colour picks the apex
    found = next(edges_inside(cg.graph._adj, common), None)
    if found is None:
        return None
    x, y = found
    if cg._red[x] >> y & 1:
        return Triangle((u, x, y), RED)
    return Triangle((v, x, y), BLUE)


def edges_inside(adj: list[int], inside: int) -> Iterator[tuple[int, int]]:
    """Pairs x < y in the mask inside with xy an adj-edge, lexicographically."""
    for x in iter_bits(inside):
        for y in iter_bits(adj[x] & inside >> (x + 1) << (x + 1)):
            yield x, y
