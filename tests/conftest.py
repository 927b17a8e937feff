import sys

import numpy as np
import pytest

from rkdlab.graph_core import PopulationGraph, build_sbm, build_two_blobs, lazy_graph


@pytest.fixture
def disconnected_blocks():
    """Two complete blocks of four vertices each, no cross edges, uniform mass."""
    return build_sbm(2, [4, 4], p_in=1.0, p_out=0.0, seed=7)


@pytest.fixture
def sbm_pair():
    """A PSD (lazy) two-block graph with a small cross fraction."""
    return lazy_graph(build_sbm(2, [5, 5], p_in=0.9, p_out=0.08, seed=11))


@pytest.fixture
def two_blobs():
    graph, points = build_two_blobs(8, separation=4.0, noise=0.5, bandwidth=1.2, seed=2)
    return graph, points


def hand_graph(weights, labels, num_classes):
    """Build a graph from a raw symmetric weight matrix after normalizing."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    return PopulationGraph(
        vertices=tuple(range(len(w))), weights=w, labels=np.asarray(labels), num_classes=num_classes
    )


@pytest.fixture
def path3():
    """Unweighted 3-path: normalized Laplacian spectrum is exactly {0, 1, 2}."""
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    w[1, 2] = w[2, 1] = 1.0
    return hand_graph(w, [0, 0, 0], 1)


@pytest.fixture
def graph_core_eighs(monkeypatch):
    """Records the shape of every numpy.linalg.eigh call made from graph_core."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "rkdlab.graph_core":
            calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls
