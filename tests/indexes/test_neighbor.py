"""``Neighbor`` is a frozen, ordered, slotted dataclass: every k-NN
answer is a list of them, and they cross process boundaries."""

import copy
import pickle

import pytest

from repro.indexes.base import Neighbor


def test_slotted_and_frozen():
    neighbor = Neighbor(0.5, 3)
    assert not hasattr(neighbor, "__dict__")
    with pytest.raises(AttributeError):
        neighbor.distance = 1.0


def test_pickle_and_deepcopy_round_trip():
    neighbors = [Neighbor(0.25, 7), Neighbor(float("inf"), 0), Neighbor(0.0, 2**40)]
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(neighbors, protocol)) == neighbors
    copied = copy.deepcopy(neighbors)
    assert copied == neighbors
    assert copy.copy(neighbors[0]) == neighbors[0]


def test_ordering_is_by_distance_then_id():
    neighbors = [Neighbor(0.5, 9), Neighbor(0.5, 2), Neighbor(0.1, 30)]
    assert sorted(neighbors) == [Neighbor(0.1, 30), Neighbor(0.5, 2), Neighbor(0.5, 9)]
    assert Neighbor(0.5, 2) < Neighbor(0.5, 9) <= Neighbor(0.5, 9)


def test_hash_matches_equality():
    a, b = Neighbor(0.5, 2), Neighbor(0.5, 2)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Neighbor(0.5, 3)}) == 2
    restored = pickle.loads(pickle.dumps(a))
    assert hash(restored) == hash(a) and restored in {a}
