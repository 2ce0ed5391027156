"""Property tests: running aggregates agree with a replay of the full history.

Hypothesis runs derandomized with a bounded example count, so every run of
the suite checks the same inputs.  The last test checks that a failing
property is reported as one failure under the repository's pytest settings.
"""
from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from perpetual.allocation import EfcThresholdState, EfxState, check_efk
from perpetual.baselines import make_policy
from perpetual.public_decisions import PdmState

from oracles import efk_oracle

PROPERTY = settings(derandomize=True, deadline=None, max_examples=120)


@st.composite
def efc_histories(draw):
    """A ledger on a 1/10 or 1/8 grid (so distinct sums differ by far more
    than the tolerance), then rounds of ledger-or-zero values and recipients."""
    n = draw(st.integers(2, 4))
    denom = draw(st.sampled_from([10, 8]))
    ledger = [k / denom for k in draw(st.lists(st.integers(1, 30), min_size=1,
                                               max_size=4, unique=True))]
    pool = [0.0] + ledger
    rounds = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(pool), min_size=n, max_size=n),
                  st.integers(0, n - 1)),
        max_size=40))
    return n, ledger, rounds


@PROPERTY
@given(efc_histories(), st.lists(st.integers(0, 50), min_size=1, max_size=4))
def test_count_based_check_efk_equals_history_oracle(history, ks):
    n, ledger, rounds = history
    state = EfcThresholdState(n, ledger)
    bundles = [[] for _ in range(n)]
    for values, recipient in rounds:
        state.apply(values, recipient)
        bundles[recipient].append(values)
    for k in ks:
        checks = check_efk(state, k)
        assert set(checks) == {(i, j) for i in range(n) for j in range(n) if i != j}
        for (i, j), ok in checks.items():
            assert ok == efk_oracle(bundles, i, j, k), (i, j, k)


_EXTREMES = [0.0, 1e-300, 0.25, 0.5, 1.0, 1e300]


@st.composite
def policy_streams(draw):
    n = draw(st.integers(2, 4))
    names = ["potential", "round_robin", "util_greedy", "deficit_greedy", "constant"]
    if n == 2:
        names.append("benade2")
    name = draw(st.sampled_from(names))
    tie = st.sampled_from(_EXTREMES).map(lambda v: [v] * n)  # every agent equal
    mixed = st.lists(st.sampled_from(_EXTREMES), min_size=n, max_size=n)
    items = draw(st.lists(st.one_of(tie, mixed), max_size=30))
    return n, name, items


@PROPERTY
@given(policy_streams())
def test_policy_state_equals_naive_replay(case):
    n, name, items = case
    pol = make_policy(name, n)
    bundle = [0.0] * n
    total = [0.0] * n
    missed = [0.0] * n
    for values in items:
        a = pol.play(values)
        for i in range(n):
            total[i] += values[i]
            if i == a:
                bundle[i] += values[i]
            else:
                missed[i] = max(missed[i], values[i])
    assert pol.state.bundle_value.tolist() == bundle
    assert pol.state.total_value.tolist() == total
    assert pol.state.missed_max.tolist() == missed
    assert pol.state.deficits().tolist() == [g / n - u for g, u in zip(total, bundle)]


@PROPERTY
@given(policy_streams())
def test_util_greedy_equals_per_agent_loop(case):
    n, _, items = case
    pol = make_policy("util_greedy", n)
    util = [0.0] * n
    for values in items:
        best, best_min = 0, -math.inf
        for a in range(n):
            post = list(util)
            post[a] += values[a]
            if min(post) > best_min:
                best, best_min = a, min(post)
        assert pol.play(values) == best
        util[best] += values[best]
    assert np.array_equal(pol.state.bundle_value, util)


@st.composite
def state_histories(draw, outcomes):
    """n agents and up to 30 rounds of (values, action) over the extremes,
    some rounds one value throughout.  With ``outcomes`` a round is n rows of
    C outcome values and the action an outcome, else one value per agent and
    the action a recipient."""
    n = draw(st.integers(2, 4))
    cols = draw(st.integers(1, 3)) if outcomes else 1
    tie = st.sampled_from(_EXTREMES).map(lambda v: [v] * (n * cols))
    mixed = st.lists(st.sampled_from(_EXTREMES), min_size=n * cols, max_size=n * cols)
    action = st.integers(0, (cols if outcomes else n) - 1)
    rounds = draw(st.lists(st.tuples(st.one_of(tie, mixed), action), max_size=30))
    return n, cols, rounds


def _ratio(d, scale):
    return max(d, 0.0) / scale if scale > 0 else 0.0


@PROPERTY
@given(state_histories(outcomes=False))
def test_efx_state_equals_naive_replay(history):
    n, _, rounds = history
    state = EfxState(n)
    cross = [[0.0] * n for _ in range(n)]  # v_i(P_j)
    scale = [[0.0] * n for _ in range(n)]  # max v_i(g) over g in P_j, i != j
    for x, r in rounds:
        state.apply(x, r)
        for i in range(n):
            cross[i][r] += x[i]
            if i != r:
                scale[i][r] = max(scale[i][r], x[i])
    assert state.cross_value.tolist() == cross
    assert state.pair_scale.tolist() == scale
    assert state.profile().tolist() == [_ratio(cross[i][j] - cross[i][i], scale[i][j])
                                        for i in range(n) for j in range(n) if i != j]


@PROPERTY
@given(state_histories(outcomes=True))
def test_pdm_state_equals_naive_replay(history):
    n, cols, rounds = history
    state = PdmState(n, cols)
    util, prop, run_max = [0.0] * n, [0.0] * n, [0.0] * n
    for flat, o in rounds:
        rows = [flat[i * cols:(i + 1) * cols] for i in range(n)]
        state.apply(rows, o)
        for i in range(n):
            prop[i] += max(rows[i]) / n
            util[i] += rows[i][o]
            run_max[i] = max(run_max[i], max(rows[i]))
    assert state.util.tolist() == util
    assert state.prop.tolist() == prop
    assert state.run_max.tolist() == run_max
    assert state.deficits().tolist() == [p - u for p, u in zip(prop, util)]
    assert state.profile().tolist() == [_ratio(p - u, v) for p, u, v in zip(prop, util, run_max)]


_FAILING_THEN_PASSING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    """Under this repository's pytest settings a failing Hypothesis test is
    one failure: reporting it (which may import third-party modules that
    warn) does not abort the session before the next test runs."""
    shutil.copy(Path(__file__).parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text(_FAILING_THEN_PASSING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout[-2000:]
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]
