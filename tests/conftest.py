import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from flatscape.graphs import generate_star, generate_unit_disk


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process (waitpid gave pid {pid})")


@pytest.fixture
def star22():
    return generate_star(2, 2)


@pytest.fixture
def small_unit_disks():
    """A pool of small random unit-disk instances (n kept modest)."""
    graphs = []
    seed = 0
    while len(graphs) < 20 and seed < 200:
        g = generate_unit_disk(4, 3, 0.8, seed)
        seed += 1
        if 4 <= g.n <= 12:
            graphs.append(g)
    return graphs
