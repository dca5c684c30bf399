"""Properties of the config merge over generated mappings (hypothesis)."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from collapselab.config import merged

from conftest import containers


_KEYS = st.sampled_from("abcd")
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                     st.floats(allow_nan=False), st.text(max_size=2))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_KEYS, inner, max_size=3)),
    max_leaves=10)
_MAPPINGS = st.dictionaries(_KEYS, _VALUES, max_size=4)


def _assert_merged(base, over, out):
    assert set(out) == set(base) | set(over)
    for key, value in out.items():
        if key not in over:
            assert value == base[key]
        elif isinstance(base.get(key), dict) and isinstance(over[key], dict):
            _assert_merged(base[key], over[key], value)
        else:
            assert value == over[key]


@settings(max_examples=200, deadline=None)
@given(base=_MAPPINGS, over=_MAPPINGS)
def test_merged_properties(base, over):
    before = copy.deepcopy((base, over))
    out = merged(base, over)
    _assert_merged(base, over, out)
    assert (base, over) == before
    inputs = {id(c) for c in containers(base)} | {id(c) for c in containers(over)}
    assert not inputs & {id(c) for c in containers(out)}
