import pytest

from obskit.multigraph import MultiGraph
from obskit.obstructions import fixture_graphs
from obskit.verify import SUITES, _same_graphs, verify_suite

from conftest import relabel


def test_suite_names():
    assert set(SUITES) == {"section6", "invariants", "rado", "gaps"}
    with pytest.raises(ValueError):
        verify_suite("everything")


def test_rado_suite_passes():
    report = verify_suite("rado")
    assert report["suite"] == "rado"
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    for check in report["checks"]:
        assert check["status"] == "PASS"
        assert check["detail"]


def test_gaps_suite_passes():
    report = verify_suite("gaps")
    assert report["passed"] is True
    assert len(report["checks"]) == 3


def test_fixture_comparison_ignores_vertex_labels():
    want = fixture_graphs("obstructions_outerplanar.txt")   # K4, K_{2,3}
    relabelled = [relabel(g, list(reversed(range(g.n)))) for g in want]
    assert relabelled[1].edges != want[1].edges
    assert _same_graphs(relabelled[::-1], want)
    # the bowtie has the order and size of K_{2,3} but is not isomorphic
    bowtie = MultiGraph.build(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert not _same_graphs([want[0], bowtie], want)
    assert not _same_graphs(want + want[:1], want)
