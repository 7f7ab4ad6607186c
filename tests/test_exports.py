"""Names the benchmark in perfbench/ replays stay reachable where it looks them up."""

import re
from pathlib import Path

import bohrlift

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_replayed_stages_stay_exported():
    # a name dropped from __all__ silently blanks the per-layer metric of its stage
    names = set(re.findall(r'_exported\("(\w+)"\)', WORKLOADS.read_text()))
    assert {"torus_angles", "power_values_at_angles", "dirichlet_line_values", "pairwise_mean", "pairwise_sum"} <= names
    assert sorted(names - set(bohrlift.__all__)) == []
    assert callable(bohrlift.spaces.row_norms)


def test_all_names_are_bound_once():
    # a typo in __all__ breaks `from bohrlift import *` and blanks a replayed stage
    names = bohrlift.__all__
    assert [name for name in names if not hasattr(bohrlift, name)] == []
    assert sorted(name for name in set(names) if names.count(name) > 1) == []
