"""The vectorized seed tree against NumPy's own ``SeedSequence`` → PCG64.

:func:`repro.sim.seeding.uniform_streams` reimplements NumPy's
``SeedSequence`` entropy hash and the PCG64 generator in uint64 array
arithmetic.  The oracle here is NumPy itself,
``default_rng(SeedSequence(root, spawn_key=(k,))).random(width)``, so a
change of NumPy's algorithms (or of its integer promotion rules) fails
these tests loudly instead of silently shifting every stream of the repo.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BetaBinomialObservationModel, NodeParameters
from repro.sim import BatchRecoveryEngine, FleetScenario
from repro.sim.seeding import spawn_streams, uniform_streams

SALT = 0x5EED_AD7E

#: Roots at the SeedSequence word-count boundaries: one word, the largest
#: one-word value, two words, three words and five words (more than the
#: pool size, so the extra words take the "remaining entropy" branch).
EDGE_ROOTS = [0, 2**32 - 1, 2**32, 2**64 + 9, 2**128 + 1]

roots = st.one_of(
    st.sampled_from(EDGE_ROOTS),
    st.integers(min_value=0, max_value=2**160),
    st.builds(lambda e: [SALT, e], st.integers(min_value=0, max_value=2**70)),
)


def _oracle(root, keys, width: int) -> np.ndarray:
    rows = [
        np.random.default_rng(np.random.SeedSequence(root, spawn_key=(k,))).random(width)
        for k in keys
    ]
    return np.array(rows).reshape(len(rows), width)


@settings(max_examples=60, deadline=None)
@given(
    root=roots,
    first=st.integers(min_value=0, max_value=2**32 - 8),
    count=st.integers(min_value=1, max_value=7),
    width=st.integers(min_value=1, max_value=90),
)
def test_streams_equal_numpy_seed_sequence_children(root, first, count, width):
    keys = range(first, first + count)
    got = uniform_streams([(root, keys)], width)
    assert got.shape == (count, width) and got.flags.c_contiguous
    np.testing.assert_array_equal(got, _oracle(root, keys, width))


@pytest.mark.parametrize("count", [1, 3, 700, 1500])
def test_stream_counts_across_lane_layouts(count):
    # Few streams fold time into many lanes; many streams span several
    # chunks with a short last one.
    keys = range(1000, 1000 + count)
    np.testing.assert_array_equal(
        uniform_streams([(12345, keys)], 37), _oracle(12345, keys, 37)
    )


def test_mixed_root_cohort_equals_member_calls_concatenated():
    members = [
        (5, range(0, 6)),
        ([SALT, 2**64 + 9], range(3, 5)),
        (2**130 + 7, range(2**32 - 2, 2**32)),
        (0, range(0)),
        (7, [9, 1, 4]),
    ]
    fused = uniform_streams(members, 23)
    parts = [uniform_streams([member], 23) for member in members]
    np.testing.assert_array_equal(fused, np.concatenate(parts))
    np.testing.assert_array_equal(
        fused, np.concatenate([_oracle(root, keys, 23) for root, keys in members])
    )


def test_spawn_streams_are_the_scalar_form():
    members = [(3, range(4)), ([SALT, 3], range(2))]
    generators = spawn_streams(members)
    np.testing.assert_array_equal(
        np.array([g.random(11) for g in generators]), uniform_streams(members, 11)
    )


def test_range_members_equal_the_slice_of_the_full_draw():
    params = NodeParameters(p_a=0.1, p_c1=1e-5, p_c2=1e-3, p_u=0.02, eta=2.0)
    scenario = FleetScenario.homogeneous(
        params, BetaBinomialObservationModel(n=10), num_nodes=3, horizon=9, f=1
    )
    engine = BatchRecoveryEngine(scenario)
    full = engine.draw_uniforms(11, 7)
    for lo, hi in ((0, 7), (1, 4), (6, 7)):
        np.testing.assert_array_equal(
            engine.draw_uniforms([(11, range(lo, hi))]), full[lo:hi]
        )


@pytest.mark.parametrize("key", [2**32, 2**40, -1, 2**70])
def test_out_of_range_spawn_key_raises_a_named_error(key):
    with pytest.raises(ValueError, match="spawn keys must lie in"):
        uniform_streams([(0, [0, key])], 4)


def test_negative_root_raises():
    with pytest.raises(ValueError, match="non-negative"):
        uniform_streams([(-1, range(2))], 4)


def test_empty_draws_have_the_right_shape():
    assert uniform_streams([(0, range(0))], 5).shape == (0, 5)
    assert uniform_streams([(0, range(3))], 0).shape == (3, 0)
