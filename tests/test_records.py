"""Value semantics of the records that caches and span notes key on, and the
containers of the records that are not tuples."""

from critpop.bc import folded_instance
from critpop.core import ProblemInstance
from critpop.poly import Poly
from critpop.reproduction import PopulationAtlas
from critpop.roots import RootData, root_data
from conftest import span

B2_CFG = {"root_system": "B2", "weights": [[1, 0], [0, 1]], "points": ["0", "1/2"]}


def assert_equal_values(a, b):
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_polyspace_by_basis():
    texts = ("1 2 1", "0 1", "3")
    a = span(Poly.from_text(t) for t in texts)
    b = span(Poly.from_text(t) for t in reversed(texts))
    assert_equal_values(a, b)
    assert a != span([Poly.from_text("0 1")])


def test_problem_instance_by_rd_weights_points():
    a, b = ProblemInstance.from_config(B2_CFG), ProblemInstance.from_config(B2_CFG)
    assert_equal_values(a, b)
    assert a != ProblemInstance.from_config(dict(B2_CFG, points=["0", "1/3"]))
    assert a != ProblemInstance.from_config(dict(B2_CFG, root_system="C2"))


def test_folded_instance_cached_by_value():
    a, b = ProblemInstance.from_config(B2_CFG), ProblemInstance.from_config(B2_CFG)
    assert a is not b
    assert folded_instance(a) is folded_instance(b)


def test_root_data_by_value():
    rd = root_data("C3")
    assert_equal_values(rd, RootData(rd.kind, rd.rank, rd.cartan, rd.d))
    assert rd != root_data("B3")


def test_population_atlases_share_no_containers():
    pi = ProblemInstance.from_config(B2_CFG)
    a, b = PopulationAtlas(pi), PopulationAtlas(pi)
    assert a.members is not b.members and a.edges is not b.edges
    a.members[(0, 0)] = None
    a.edges.add(((0, 0), 0, (1, 0)))
    assert b.members == {} and b.edges == set()
