"""The result records behave as small immutable value classes.

Each record class of the package has one row: a sample given as its fields
in order, and the sample's exact repr.  The sample is built once by position
and once by keyword, and the two builds must agree.  A record equals and
hashes as its field tuple among records of its own class, refuses
assignment and deletion, and takes each field exactly once.
FivePartInstance holds a dict of pair densities, so it does not hash, and its
row checks no assignment.
"""

from fractions import Fraction

import pytest

from monotile import (
    AuxReduction,
    BoundReport,
    ChromaticProfile,
    DominatingResult,
    ExtremalInstance,
    F2Copy,
    F2TilingResult,
    FivePartInstance,
    Graph,
    GraphError,
    IndependenceResult,
    PeelResult,
    RegularityWitness,
    SolveResult,
    Tiling,
    Triangle,
    UpperBoundCertificate,
    build_colored_graph,
)
from monotile.graphs import Record
from monotile.solver import PeelStep
from monotile.theory import F2Classification, FivePartTilingResult

CG = build_colored_graph(3, [(0, 1, "r"), (0, 2, "r"), (1, 2, "b")])
TRI = Triangle((0, 1, 2), "r")
TILING = Tiling((TRI,), "weak")
ALPHA = IndependenceResult(alpha=2, witness=frozenset({0, 3}), exact=True, nodes_expanded=5)
CERT = UpperBoundCertificate(kind="AvoidV1", bound=3, parts=(0,))
STEP = PeelStep(order=6, min_degree=4, triangle=TRI)
COPY = F2Copy(center=0, wings=((1, 2), (3, 4)))

TRI_REPR = "Triangle(vertices=(0, 1, 2), color='r')"
TILING_REPR = f"Tiling(triangles=({TRI_REPR},), mode='weak')"
CG_REPR = "ColoredGraph(n=3, red=2, blue=1)"
ALPHA_REPR = (
    "IndependenceResult(alpha=2, witness=frozenset({0, 3}), exact=True, nodes_expanded=5)"
)
CERT_REPR = "UpperBoundCertificate(kind='AvoidV1', bound=3, parts=(0,))"
STEP_REPR = f"PeelStep(order=6, min_degree=4, triangle={TRI_REPR})"
COPY_REPR = "F2Copy(center=0, wings=((1, 2), (3, 4)))"


def row(cls, text, frozen=True, **fields):
    return pytest.param(cls, fields, text, frozen, id=cls.__name__)


ROWS = [
    row(UpperBoundCertificate, CERT_REPR, kind="AvoidV1", bound=3, parts=(0,)),
    row(
        ExtremalInstance,
        f"ExtremalInstance(colored_graph={CG_REPR}, parts=((0,), (1, 2)), delta_target=1, "
        f"part_method='greedy', seed=0, achieved_min_degree=1, part_alphas=({ALPHA_REPR},), "
        f"certificates=({CERT_REPR},))",
        colored_graph=CG,
        parts=((0,), (1, 2)),
        delta_target=1,
        part_method="greedy",
        seed=0,
        achieved_min_degree=1,
        part_alphas=(ALPHA,),
        certificates=(CERT,),
    ),
    row(
        FivePartInstance,
        f"FivePartInstance(colored_graph={CG_REPR}, parts=((0,), (1,), (2,)), m=1, "
        "requested_density=0.5, p_red=0.5, seed=0, pair_densities={(0, 1): Fraction(1, 2)})",
        frozen=False,
        colored_graph=CG,
        parts=((0,), (1,), (2,)),
        m=1,
        requested_density=0.5,
        p_red=0.5,
        seed=0,
        pair_densities={(0, 1): Fraction(1, 2)},
    ),
    row(Triangle, TRI_REPR, vertices=(0, 1, 2), color="r"),
    row(Tiling, TILING_REPR, triangles=(TRI,), mode="weak"),
    row(IndependenceResult, ALPHA_REPR, alpha=2, witness=frozenset({0, 3}), exact=True, nodes_expanded=5),
    row(
        RegularityWitness,
        "RegularityWitness(X=frozenset({0, 1}), Y=frozenset({2}), deviation=Fraction(1, 3))",
        X=frozenset({0, 1}),
        Y=frozenset({2}),
        deviation=Fraction(1, 3),
    ),
    row(
        DominatingResult,
        "DominatingResult(picks=(0,), covered=frozenset({2, 3}), t_target=2, "
        "irregular_steps=(), uncovered_sizes=(2, 0))",
        picks=(0,),
        covered=frozenset({2, 3}),
        t_target=2,
        irregular_steps=(),
        uncovered_sizes=(2, 0),
    ),
    row(
        SolveResult,
        f"SolveResult(tiling={TILING_REPR}, exact=True, nodes_expanded=4, upper_bound_used=1)",
        tiling=TILING,
        exact=True,
        nodes_expanded=4,
        upper_bound_used=1,
    ),
    row(PeelStep, STEP_REPR, order=6, min_degree=4, triangle=TRI),
    row(
        PeelResult,
        f"PeelResult(tiling={TILING_REPR}, residual=frozenset({{3, 4, 5}}), reason='min_degree', "
        f"window_ok=True, residual_order=3, residual_min_degree=1, trace=({STEP_REPR},))",
        tiling=TILING,
        residual=frozenset({3, 4, 5}),
        reason="min_degree",
        window_ok=True,
        residual_order=3,
        residual_min_degree=1,
        trace=(STEP,),
    ),
    row(
        BoundReport,
        "BoundReport(n=10, delta=6, gamma=Fraction(1, 10), thm3_lower=Fraction(1, 2), "
        "remarkA_upper=None, bft_weak=Fraction(3, 1))",
        n=10,
        delta=6,
        gamma=Fraction(1, 10),
        thm3_lower=Fraction(1, 2),
        remarkA_upper=None,
        bft_weak=Fraction(3),
    ),
    row(
        ChromaticProfile,
        "ChromaticProfile(chi=3, sigma=1, chi_cr=Fraction(5, 2), hcf_chi=None, hcf_c=1, "
        "hcf=1, chi_star=Fraction(5, 2))",
        chi=3,
        sigma=1,
        chi_cr=Fraction(5, 2),
        hcf_chi=None,
        hcf_c=1,
        hcf=1,
        chi_star=Fraction(5, 2),
    ),
    row(
        AuxReduction,
        "AuxReduction(base=Graph(n=2, m=1), aux=Graph(n=5, m=7), C=Fraction(1, 1), "
        "c_f2=Fraction(0, 1), k=2, delta=1, w_vertices=(2, 3, 4), aux_min_degree=2, "
        "hypothesis_ok=False)",
        base=Graph(2, [(0, 1)]),
        aux=Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
        C=Fraction(1),
        c_f2=Fraction(0),
        k=2,
        delta=1,
        w_vertices=(2, 3, 4),
        aux_min_degree=2,
        hypothesis_ok=False,
    ),
    row(F2Copy, COPY_REPR, center=0, wings=((1, 2), (3, 4))),
    row(
        F2TilingResult,
        f"F2TilingResult(copies=({COPY_REPR},), perfect=True, exact=True, nodes_expanded=3)",
        copies=(COPY,),
        perfect=True,
        exact=True,
        nodes_expanded=3,
    ),
    row(
        F2Classification,
        "F2Classification(s=0, t=1, ell=0, ell_minus_s=Fraction(0, 1), "
        "lower_guarantee=Fraction(-1, 2))",
        s=0,
        t=1,
        ell=0,
        ell_minus_s=Fraction(0),
        lower_guarantee=Fraction(-1, 2),
    ),
    row(
        FivePartTilingResult,
        f"FivePartTilingResult(tiling={TILING_REPR}, target_reached=False, phase1_count=1, "
        "phase2_count=0)",
        tiling=TILING,
        target_reached=False,
        phase1_count=1,
        phase2_count=0,
    ),
]

CASES = pytest.mark.parametrize("cls, fields, text, frozen", ROWS)
FROZEN = pytest.mark.parametrize("cls, fields, text, frozen", [r for r in ROWS if r.values[3]])


def test_every_record_class_has_a_row():
    assert {r.values[0] for r in ROWS} == set(Record.__subclasses__())


@CASES
def test_repr(cls, fields, text, frozen):
    assert repr(cls(*fields.values())) == text
    assert repr(cls(**fields)) == text


@CASES
def test_position_and_keyword_builds_agree(cls, fields, text, frozen):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword
    assert not by_position != by_keyword
    for name, value in fields.items():
        assert getattr(by_position, name) == getattr(by_keyword, name) == value
    if frozen:
        assert hash(by_position) == hash(by_keyword) == hash(tuple(fields.values()))
    else:
        with pytest.raises(TypeError):
            hash(by_position)


@CASES
def test_unequal_to_another_class(cls, fields, text, frozen):
    twin = type(f"Twin{cls.__name__}", (cls,), {})
    record, other = cls(**fields), twin(**fields)
    assert record != other and other != record
    assert record != tuple(fields.values())
    assert record.__eq__(other) is NotImplemented


@FROZEN
def test_fields_are_read_only(cls, fields, text, frozen):
    record = cls(**fields)
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, first, fields[first])
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert cls(**fields) == record


@CASES
def test_each_field_taken_exactly_once(cls, fields, text, frozen):
    values = list(fields.values())
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(*values[:-1])  # missing
    with pytest.raises(TypeError):
        cls(*values, values[-1])  # extra
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})  # repeated
    with pytest.raises(TypeError):
        cls(*values, unknown=0)  # unknown
    with pytest.raises(TypeError):
        cls()


def test_triangle_sorts_vertices_and_checks_them():
    assert Triangle((2, 0, 1), "b").vertices == (0, 1, 2)
    assert Triangle((2, 0, 1), "b") == Triangle(vertices=(0, 1, 2), color="b")
    with pytest.raises(GraphError, match="degenerate"):
        Triangle((1, 0, 1), "r")
    with pytest.raises(GraphError, match="bad triangle color"):
        Triangle((0, 1, 2), "green")


def test_tiling_keeps_a_tuple_and_checks_its_mode():
    tiling = Tiling([TRI], "strong")
    assert tiling.triangles == (TRI,) and type(tiling.triangles) is tuple
    with pytest.raises(GraphError, match="bad tiling mode"):
        Tiling((TRI,), "both")


def test_f2copy_sorts_wings_and_checks_vertices():
    assert F2Copy(0, ((4, 3), (2, 1))) == COPY
    with pytest.raises(ValueError, match="negative vertex"):
        F2Copy(-1, ((1, 2), (3, 4)))
    with pytest.raises(ValueError, match="not distinct"):
        F2Copy(0, ((0, 1), (2, 3)))
