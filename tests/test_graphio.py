"""Instance file format: round trips, tolerant parsing, hard failures."""

import random

import pytest

from monotile import graphio
from monotile.generators import extremal_instance, five_part_instance, random_coloring
from monotile.graphio import (
    FormatError,
    dump_colored_graph,
    dump_graph,
    load_colored_graph,
    load_graph,
    load_graph_text,
)
from monotile.graphs import BLUE, RED, ColoredGraph, Graph, build_colored_graph

import oracles


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
    )


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_plain_graph(self, seed):
        g = random_graph(11, 0.4, seed)
        assert load_graph_text(dump_graph(g)) == g

    @pytest.mark.parametrize("seed", range(10))
    def test_colored_graph(self, seed):
        rng = random.Random(seed)
        edges = [
            (u, v, RED if rng.random() < 0.5 else BLUE)
            for u in range(9)
            for v in range(u + 1, 9)
            if rng.random() < 0.5
        ]
        cg = build_colored_graph(9, edges)
        back = load_colored_graph(dump_colored_graph(cg))
        assert back.graph == cg.graph
        assert back.colored_edges == cg.colored_edges

    def test_edgeless_colored_graph(self):
        cg = build_colored_graph(5, [])
        back = load_colored_graph(dump_colored_graph(cg))
        assert back.graph.n == 5
        assert back.colored_edges == ()

    def test_dump_is_deterministic(self):
        g = random_graph(10, 0.5, seed=0)
        assert dump_graph(g) == dump_graph(Graph(g.n, list(reversed(g.edges))))

    def test_file_contents(self, tmp_path):
        g = random_graph(8, 0.5, seed=2)
        path = tmp_path / "g.txt"
        path.write_text(dump_graph(g))
        assert load_graph(path.read_text()) == g


class TestParsing:
    def test_comments_and_blank_lines_skipped(self):
        text = "# instance\n\n3 1\n# edge list\n0 1\n\n"
        g = load_graph_text(text)
        assert g == Graph(3, [(0, 1)])

    def test_colored_parse(self):
        cg = load_colored_graph("3 2\n0 1 r\n1 2 b\n")
        assert cg.color_of(0, 1) == RED
        assert cg.color_of(1, 2) == BLUE

    def test_edge_count_mismatch(self):
        with pytest.raises(FormatError):
            load_graph_text("3 2\n0 1\n")

    def test_bad_header(self):
        with pytest.raises(FormatError):
            load_graph_text("three one\n0 1\n")
        with pytest.raises(FormatError):
            load_graph_text("")

    def test_bad_color_letter(self):
        with pytest.raises((FormatError, ValueError)):
            load_colored_graph("3 1\n0 1 x\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            load_graph_text("3 1\n0 7\n")

    def test_uncolored_rejected_by_colored_loader(self):
        with pytest.raises((FormatError, ValueError)):
            load_colored_graph("3 1\n0 1\n")


def outcome(read, text):
    """What a reader makes of text: the graph's kind, n and edges, or the
    exception's type name and message."""
    try:
        g = read(text)
    except Exception as exc:  # the table pins the type, whatever it is
        return type(exc).__name__, str(exc)
    if isinstance(g, ColoredGraph):
        return "colored", g.n, g.colored_edges
    return "plain", g.n, g.edges


# Every row's outcome was recorded with the line-by-line reader alone, before
# the bulk pass existed.
READER_TABLE = [
    pytest.param("", ("FormatError", "empty graph file"), id="empty"),
    pytest.param("\n", ("FormatError", "empty graph file"), id="only-newline"),
    pytest.param("  \n\t\n", ("FormatError", "empty graph file"), id="only-blanks"),
    pytest.param("# nothing here\n", ("FormatError", "empty graph file"), id="only-comment"),
    pytest.param("3\n0 1\n", ("FormatError", "line 1: header must be `n m`"), id="header-one-field"),
    pytest.param("3 1 2\n0 1\n", ("FormatError", "line 1: header must be `n m`"), id="header-three-fields"),
    pytest.param("three one\n0 1\n", ("FormatError", "line 1: bad integer 'three'"), id="header-words"),
    pytest.param("3 x\n", ("FormatError", "line 1: bad integer 'x'"), id="header-bad-m"),
    pytest.param("3.0 1\n0 1\n", ("FormatError", "line 1: bad integer '3.0'"), id="header-float"),
    pytest.param("3 1 # c\n0 1 r\n", ("FormatError", "line 1: header must be `n m`"), id="header-trailing-comment"),
    pytest.param("3 1\n", ("FormatError", "expected 1 edge lines, found 0"), id="header-only-no-edges-declared"),
    pytest.param("3 2\n0 1\n", ("FormatError", "expected 2 edge lines, found 1"), id="count-short"),
    pytest.param("3 1\n0 1\n1 2\n", ("FormatError", "expected 1 edge lines, found 2"), id="count-long"),
    pytest.param("3 -1\n", ("FormatError", "expected -1 edge lines, found 0"), id="count-negative"),
    pytest.param("3 -1\n0 1 r\n", ("FormatError", "expected -1 edge lines, found 1"), id="count-negative-with-edge"),
    pytest.param("3 2\n0 1\n1 2\n", ("plain", 3, ((0, 1), (1, 2))), id="two-columns"),
    pytest.param("3 2\n0 1 r\n1 2 b\n", ("colored", 3, ((0, 1, "r"), (1, 2, "b"))), id="three-columns"),
    pytest.param("3 1\n0 1 r x\n", ("FormatError", "line 2: inconsistent edge columns"), id="four-columns"),
    pytest.param("3 1\n0\n", ("FormatError", "line 2: inconsistent edge columns"), id="one-column"),
    pytest.param("3 2\n0 1 r\n1 2\n", ("FormatError", "line 3: inconsistent edge columns"), id="mixed-3-then-2"),
    pytest.param("3 2\n0 1\n1 2 r\n", ("FormatError", "line 3: inconsistent edge columns"), id="mixed-2-then-3"),
    pytest.param("3 2\n0 1 r\n1 2 b x\n", ("FormatError", "line 3: inconsistent edge columns"), id="mixed-3-then-4"),
    pytest.param("3 1\n0 1 x\n", ("FormatError", "line 2: color must be r or b, got 'x'"), id="bad-color-x"),
    pytest.param("3 1\n0 1 R\n", ("FormatError", "line 2: color must be r or b, got 'R'"), id="bad-color-upper"),
    pytest.param("3 1\n0 1 red\n", ("FormatError", "line 2: color must be r or b, got 'red'"), id="bad-color-word"),
    pytest.param("3 1\n0 a r\n", ("FormatError", "line 2: bad integer 'a'"), id="bad-token-colored"),
    pytest.param("3 1\na 1\n", ("FormatError", "line 2: bad integer 'a'"), id="bad-token-plain"),
    pytest.param("3 1\n0 1.0 r\n", ("FormatError", "line 2: bad integer '1.0'"), id="bad-token-float"),
    pytest.param("3 1\n0 1#x r\n", ("FormatError", "line 2: bad integer '1#x'"), id="bad-token-hash-inside"),
    pytest.param("3 1\n-1 1 r\n", ("FormatError", "edge (-1, 1) outside 0..2"), id="negative-vertex-colored"),
    pytest.param("3 1\n0 -2\n", ("FormatError", "edge (0, -2) outside 0..2"), id="negative-vertex-plain"),
    pytest.param("3 1\n0 3 r\n", ("FormatError", "edge (0, 3) outside 0..2"), id="out-of-range-colored"),
    pytest.param("3 1\n0 7\n", ("FormatError", "edge (0, 7) outside 0..2"), id="out-of-range-plain"),
    pytest.param("-1 1\n0 1 r\n", ("FormatError", "negative vertex count -1"), id="negative-n-colored"),
    pytest.param("-1 1\n0 1\n", ("FormatError", "negative vertex count -1"), id="negative-n-plain"),
    pytest.param("-1 0\n", ("VertexOutOfRangeError", "negative vertex count -1"), id="negative-n-no-edges"),
    pytest.param("3 1\n1 1 r\n", ("FormatError", "self-loop at 1"), id="self-loop-colored"),
    pytest.param("3 1\n2 2\n", ("FormatError", "self-loop at 2"), id="self-loop-plain"),
    pytest.param("3 2\n0 1 r\n0 1 r\n", ("FormatError", "duplicate edge (0, 1)"), id="duplicate-same-order"),
    pytest.param("3 2\n0 1 r\n1 0 r\n", ("FormatError", "duplicate edge (1, 0)"), id="duplicate-reversed"),
    pytest.param("3 2\n0 1 r\n1 0 b\n", ("FormatError", "duplicate edge (1, 0)"), id="duplicate-other-color"),
    pytest.param("3 2\n0 1\n1 0\n", ("FormatError", "duplicate edge (1, 0)"), id="duplicate-plain-reversed"),
    pytest.param("3 2\n0 5 r\n1 1 r\n", ("FormatError", "edge (0, 5) outside 0..2"), id="range-then-loop"),
    pytest.param("3 2\n1 1 r\n0 5 r\n", ("FormatError", "self-loop at 1"), id="loop-then-range"),
    pytest.param("3 2\n0 5 r\n0 1 x\n", ("FormatError", "line 3: color must be r or b, got 'x'"), id="range-then-color"),
    pytest.param("3 2\n0 1 x\n0 5 r\n", ("FormatError", "line 2: color must be r or b, got 'x'"), id="color-then-range"),
    pytest.param("3 2\n0 a r\n0 1 x\n", ("FormatError", "line 2: bad integer 'a'"), id="token-then-color"),
    pytest.param("3 2\n0 1 x\n0 a r\n", ("FormatError", "line 2: color must be r or b, got 'x'"), id="color-then-token"),
    pytest.param("3 3\n0 1 r\n1 0 b\n0 9 r\n", ("FormatError", "duplicate edge (1, 0)"), id="duplicate-then-range"),
    pytest.param("3 3\n0 9 r\n0 1 r\n1 0 b\n", ("FormatError", "edge (0, 9) outside 0..2"), id="range-then-duplicate"),
    pytest.param("3 3\n2 2\n0 1\n1 0\n", ("FormatError", "self-loop at 2"), id="loop-then-duplicate-plain"),
    pytest.param("3 3\n0 1\n1 0\n2 2\n", ("FormatError", "duplicate edge (1, 0)"), id="duplicate-then-loop-plain"),
    pytest.param("# instance\n\n3 1\n# edge list\n0 1 r\n\n", ("colored", 3, ((0, 1, "r"),)), id="comments-and-blanks"),
    pytest.param("3 1\n# a b\n0 1 r\n", ("colored", 3, ((0, 1, "r"),)), id="comment-with-three-fields"),
    pytest.param("3 2\n# a b\n0 1 r\n", ("FormatError", "expected 2 edge lines, found 1"), id="comment-counted-as-edge"),
    pytest.param("3 2\n0 1 r\n\n1 2 b\n", ("colored", 3, ((0, 1, "r"), (1, 2, "b"))), id="blank-line-inside"),
    pytest.param("  3 1  \n\t0 1 r  \n", ("colored", 3, ((0, 1, "r"),)), id="indented-lines"),
    pytest.param("3 2\r\n0 1 r\r\n1 2 b\r\n", ("colored", 3, ((0, 1, "r"), (1, 2, "b"))), id="crlf"),
    pytest.param("3\t1\n0\t1\tr\n", ("colored", 3, ((0, 1, "r"),)), id="tabs"),
    pytest.param("3 1\x0c0 1 r\n", ("colored", 3, ((0, 1, "r"),)), id="form-feed-line-break"),
    pytest.param("+3 1\n+0 1 r\n", ("colored", 3, ((0, 1, "r"),)), id="plus-sign-tokens"),
    pytest.param("8 1\n07 1 r\n", ("colored", 8, ((1, 7, "r"),)), id="leading-zero-tokens"),
    pytest.param("11 1\n1_0 0 r\n", ("colored", 11, ((0, 10, "r"),)), id="underscore-tokens"),
    pytest.param("3 1\n0 ２ r\n", ("colored", 3, ((0, 2, "r"),)), id="fullwidth-digit-token"),
    pytest.param("3 2\n0 1 r\n1 2 b", ("colored", 3, ((0, 1, "r"), (1, 2, "b"))), id="no-trailing-newline"),
    pytest.param("0 0\n", ("plain", 0, ()), id="n-zero"),
    pytest.param("0 0", ("plain", 0, ()), id="n-zero-no-newline"),
    pytest.param("0 1\n0 1 r\n", ("FormatError", "edge (0, 1) outside 0..-1"), id="n-zero-with-edge"),
    pytest.param("5 0\n", ("plain", 5, ()), id="no-edges"),
    pytest.param("5 0\n# done\n", ("plain", 5, ()), id="no-edges-then-comment"),
    pytest.param("3 3\n0 1\n0 2\n1 2\n", ("plain", 3, ((0, 1), (0, 2), (1, 2))), id="plain-triangle"),
    pytest.param("4 3\n2 3 b\n1 0 r\n3 0 r\n", ("colored", 4, ((0, 1, "r"), (0, 3, "r"), (2, 3, "b"))), id="colored-unsorted"),
]


@pytest.mark.parametrize("text, expected", READER_TABLE)
def test_reader_table(text, expected):
    assert outcome(load_graph_text, text) == expected


MUTATION_CHARS = " \t\r\n#rbx-+_.0123456789"


def mutated(rng: random.Random, text: str) -> str:
    """text after one to three random edits: a character inserted, deleted or
    replaced, a line duplicated, deleted or swapped with another, a line's
    first two fields swapped, or a comment or blank line inserted."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        kind = rng.randrange(8)
        i = rng.randrange(len(lines))
        if kind < 3 and text:
            at = rng.randrange(len(text))
            new = rng.choice(MUTATION_CHARS)
            keep = at + (kind != 0)  # kind 0 inserts, 1 deletes, 2 replaces
            text = text[:at] + (new if kind != 1 else "") + text[keep:]
            continue
        if kind == 3:
            lines.insert(i, lines[i])
        elif kind == 4 and len(lines) > 1:
            del lines[i]
        elif kind == 5:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == 6:
            lines[i] = " ".join(lines[i].split()[1::-1] + lines[i].split()[2:])
        else:
            lines.insert(i, rng.choice(("# comment", "", "  ", "#0 1 r")))
        text = "\n".join(lines)
    return text


def test_bulk_pass_agrees_with_line_reader():
    # 600 seeded mutations of dumped random graphs, plain and colored, one in
    # five left intact; the whole reader and the line-by-line reader alone
    # must agree exactly.  Counting the texts the bulk pass reads itself
    # (a graph or a builder error) shows that both paths are exercised.
    bulk = 0
    for seed in range(600):
        rng = random.Random(seed)
        n = rng.randrange(0, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        if seed % 2:
            text = dump_colored_graph(
                build_colored_graph(n, [(u, v, rng.choice((RED, BLUE))) for u, v in edges])
            )
        else:
            text = dump_graph(Graph(n, edges))
        if seed % 5:
            text = mutated(rng, text)
        assert outcome(load_graph_text, text) == outcome(graphio._read_lines, text), text
        try:
            bulk += graphio._read_columns(list(map(str.split, text.splitlines()))) is not None
        except FormatError:
            bulk += 1
    assert 100 <= bulk <= 500


@pytest.mark.parametrize("text", ["1000000000000000 0\n", "100000000000000000000 1\n0 1 r\n"])
def test_huge_vertex_count_is_a_value_error(text):
    # the allocation fails at once for these counts; no smaller one is tried
    with pytest.raises(ValueError, match="vertex count .* is too large"):
        load_graph_text(text)


class TestWritersMatchOracle:
    @pytest.mark.parametrize("n", range(41))
    def test_random_graphs(self, n):
        for seed, p in enumerate((0.0, 0.1, 0.5, 0.9, 1.0)):
            g = random_graph(n, p, seed)
            assert dump_graph(g) == oracles.dump_colored(g)
            cg = random_coloring(g, 0.5, seed)
            assert dump_colored_graph(cg) == oracles.dump_colored(cg)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: extremal_instance(40, 22, seed=1).colored_graph,
            lambda: five_part_instance(6, 0.6, 0.5, seed=2).colored_graph,
            lambda: random_coloring(random_graph(30, 0.7, 3), 0.4, seed=3),
        ],
        ids=["extremal", "five-part", "random"],
    )
    def test_instance_kinds(self, build):
        cg = build()
        assert dump_colored_graph(cg) == oracles.dump_colored(cg)
        assert dump_graph(cg.graph) == oracles.dump_colored(cg.graph)

    def test_sparse_rows(self):
        # rows spanning many vertices per edge take the writers' bit loop
        g = Graph(120, [(u, u + 60) for u in range(60)] + [(0, 1), (0, 119)])
        cg = random_coloring(g, 0.5, seed=4)
        assert dump_graph(g) == oracles.dump_colored(g)
        assert dump_colored_graph(cg) == oracles.dump_colored(cg)
