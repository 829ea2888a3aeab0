"""Every 3x3 grid with values 0-3 (262,144 grids) through both detector routes,
and every one with values 0-2 at every ceiling in [0, max_value + 1].

Not collected by a plain ``pytest`` run, which takes the smaller domains of
test_exhaustive.py; it takes tens of seconds, so CI runs it in a step of
its own: ``pytest tests/exhaustive_3x3.py``.
"""

from test_exhaustive import assert_domain, every_case

from isophote import Topology


def test_every_3x3_grid_with_values_0_to_3_matches_brute_force():
    assert_domain(every_case(1, 3, 3, 4), 3, (Topology.N4, Topology.N8))


def test_every_3x3_grid_with_values_0_to_2_matches_brute_force_at_every_ceiling():
    assert_domain(every_case(1, 3, 3, 3), 2, (Topology.N4, Topology.N8), ceilings=range(4))
