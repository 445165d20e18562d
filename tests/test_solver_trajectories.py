"""The solver's search is pinned: every golden trajectory replays exactly.

Performance work on ``repro.sat.solver`` must leave the search itself
unchanged; this test fails on the first corpus entry whose verdict,
counters, learnt/deleted clause sequence, level-0 facts, binaries,
model or assumption flags moved.  See ``golden/solver_trajectories.py``
for the corpus and how to regenerate the fixture.
"""

import json

import pytest

from golden.solver_trajectories import CORPUS, FIXTURE

with open(FIXTURE) as _f:
    GOLDEN = json.load(_f)


def test_fixture_covers_the_corpus():
    assert sorted(GOLDEN) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_trajectory_replays(name):
    assert json.loads(json.dumps(CORPUS[name]())) == GOLDEN[name]
