import os

import pytest

import monoball


@pytest.fixture
def package_env():
    """Environment for a child interpreter that must import this monoball,
    installed or not."""
    src = os.path.dirname(os.path.dirname(monoball.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def _bfs_power_sizes(a, n_max):
    """Ball sizes in the Cayley graph of <A>, one element at a time: the
    reference for |A^n| when the identity is in A."""
    g = a.group
    gens = list(a)
    dist = {g.identity: 0}
    frontier = [g.identity]
    depth = 0
    sizes = [1]
    while frontier and depth < n_max:
        depth += 1
        nxt = []
        for v in frontier:
            for s in gens:
                w = g.mul(v, s)
                if w not in dist:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
        sizes.append(len(dist))
    while len(sizes) <= n_max:
        sizes.append(sizes[-1])
    return tuple(sizes)


@pytest.fixture
def bfs_power_sizes():
    """The reference BFS `_bfs_power_sizes`, for tests that check power sizes."""
    return _bfs_power_sizes
