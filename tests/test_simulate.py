"""Config validation, the simulation loop, and CSV determinism."""
from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np
import pytest

from perpetual import simulate
from perpetual.allocation import EfxState, PropxState, efx_params
from perpetual.baselines import (
    POLICY_NAMES,
    RoundRobinPolicy,
    StreamSpec,
    make_policy,
    stream_generate,
)
from perpetual.framework import (DimensionMismatch, MomentWitness, ct_threshold,
                                 disappointed_count, profile_psi, verify_moment_witness)
from perpetual.metrics import gini, gmd, gmd_bound
from perpetual.simulate import (
    CSV_COLUMNS,
    ConfigInvalid,
    RunConfig,
    build_harness,
    run_simulation,
    verify_moments_run,
    write_csv,
)

from oracles import verify_moments_oracle


def base_config(**overrides):
    raw = {
        "instantiation": "propx",
        "policy": "potential",
        "stream": {"kind": "table1", "params": {"eps": 0.01}},
        "n": 2,
        "length": 6,
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config()))
    cfg = RunConfig.from_json_file(str(path))
    assert cfg.instantiation == "propx" and cfg.length == 6
    assert cfg.stream.kind == "table1"
    # absent or null optional keys keep the RunConfig defaults
    assert (cfg.c, cfg.p, cfg.k_max, cfg.benade_T) == (None, 0.0, 12, 400)
    cfg = RunConfig.from_dict(base_config(p=None, k_max=3, c=2))
    assert (cfg.c, cfg.p, cfg.k_max) == (2.0, 0.0, 3)


@pytest.mark.parametrize("bad", [
    {"instantiation": "nope"},
    {"policy": "nope"},
    {"stream": {"kind": "nope"}},
    {"stream": {"kind": "table1", "extra": 1}},
    {"mystery_key": 1},
    {"n": 1},
    {"length": -1},
    {"window": 3},
    {"n": "two"},
    {"c": [1.0]},
    {"k_max": "twelve"},
    {"k_max": -1},
    {"benade_T": 0},
    {"benade_T": -400},
    {"stream": {"kind": "table1", "params": {"epsilon": 0.5}}},
    # a key that only another instantiation reads (the base run is propx)
    {"gamma": 0.5},
    {"theta": [0.5, 1.0]},
    {"num_outcomes": 3},
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict(base_config(**bad))


def test_config_requires_all_keys():
    for key in ("instantiation", "policy", "stream", "n", "length"):
        raw = base_config()
        del raw[key]
        with pytest.raises(ConfigInvalid):
            RunConfig.from_dict(raw)


def test_random_stream_requires_seed():
    raw = base_config(stream={"kind": "uniform_random"})
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict(raw)
    RunConfig.from_dict(base_config(stream={"kind": "uniform_random", "seed": 1}))
    # the seed belongs to the stream: a top-level seed is an unknown key
    with pytest.raises(ConfigInvalid, match="seed"):
        RunConfig.from_dict(base_config(stream={"kind": "uniform_random"}, seed=1))


def test_instantiation_specific_requirements():
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict(base_config(instantiation="pdm"))
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict(base_config(instantiation="pdm", num_outcomes=3,
                                        policy="round_robin"))
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict(base_config(instantiation="efc"))
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict(base_config(instantiation="discounted"))
    for gamma in (0.0, 1.0, 1.5):
        with pytest.raises(ConfigInvalid):
            RunConfig.from_dict(base_config(instantiation="discounted", gamma=gamma))
    for kind in ("constant", "table1", "window_cycle", "round_robin_alt"):
        with pytest.raises(ConfigInvalid, match="random stream kind"):
            RunConfig.from_dict(base_config(instantiation="pdm", num_outcomes=3,
                                            stream={"kind": kind}))
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict(base_config(policy="benade2", n=3))
    cfg = RunConfig.from_dict(base_config(instantiation="pdm", num_outcomes=3,
                                          stream={"kind": "uniform_random", "seed": 1}))
    assert cfg.stream.width == 3


def test_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigInvalid):
        RunConfig.from_json_file(str(path))
    with pytest.raises(ConfigInvalid):
        RunConfig.from_json_file(str(tmp_path / "missing.json"))


# ---------------------------------------------------------------------------
# Simulation loop
# ---------------------------------------------------------------------------

def test_run_simulation_table1_potential():
    rows = run_simulation(RunConfig.from_dict(base_config()))
    assert len(rows) == 6
    assert [r["t"] for r in rows] == [1, 2, 3, 4, 5, 6]
    for r in rows:
        assert set(r) == set(CSV_COLUMNS)
        assert r["max_deficit"] <= r["ct_bound"] + 1e-9
        assert r["gmd"] <= r["gmd_bound"] + 1e-9
        assert r["psi"] > 0


def test_run_simulation_item_policy_action_column():
    cfg = RunConfig.from_dict(base_config(policy="round_robin", length=4))
    rows = run_simulation(cfg)
    assert [r["action"] for r in rows] == [0, 1, 0, 1]


def test_run_simulation_disappointed_uses_c_when_given():
    cfg = RunConfig.from_dict(base_config(policy="round_robin",
                                          stream={"kind": "round_robin_alt",
                                                  "params": {"eps": 0.01}},
                                          length=60, c=0.25))
    rows = run_simulation(cfg)
    assert any(r["disappointed"] > 0 for r in rows)


def test_all_instantiations_run_and_verify(tmp_path):
    configs = [
        base_config(stream={"kind": "uniform_random", "seed": 5}, length=40),
        base_config(instantiation="efx", n=3,
                    stream={"kind": "uniform_random", "seed": 6}, length=40),
        base_config(instantiation="efc", n=3, theta=[0.25, 0.5, 1.0],
                    stream={"kind": "choice", "seed": 7,
                            "params": {"values": [0.25, 0.5, 1.0]}}, length=40),
        base_config(instantiation="pdm", num_outcomes=3, n=3,
                    stream={"kind": "uniform_random", "seed": 8}, length=40),
        base_config(instantiation="discounted", gamma=0.9,
                    stream={"kind": "uniform_random", "seed": 9}, length=40),
    ]
    for raw in configs:
        cfg = RunConfig.from_dict(raw)
        rows = run_simulation(cfg)
        assert len(rows) == 40
        ok, worst = verify_moments_run(cfg)
        assert ok, (raw["instantiation"], worst)


def test_verify_moments_follows_the_configured_policy():
    raw = base_config(instantiation="efx", n=3, policy="round_robin", length=60,
                      stream={"kind": "uniform_random", "seed": 11})
    cfg = RunConfig.from_dict(raw)
    state, params, pol = EfxState(3), efx_params(3), RoundRobinPolicy(3)
    ok, worst = True, 0.0
    for values in stream_generate(cfg.stream):
        report = verify_moment_witness(state.profile(), state.candidates_of(values),
                                       state.witness_of(values), params, tol=1e-9)
        ok = ok and report.ok
        worst = max(worst, report.worst_shift_violation, report.worst_first_moment,
                    max(0.0, report.worst_second_moment - params.sigma_sq))
        action = pol.play(values)
        state.apply(values, action)
    assert verify_moments_run(cfg) == (ok, worst)
    # the potential rule's trajectory gives another worst residual
    assert verify_moments_run(RunConfig.from_dict({**raw, "policy": "potential"})) != (ok, worst)


#: per instantiation, the config keys besides n of a short uniform run
_EXTRA = {
    "propx": {},
    "efx": {},
    "efc": {"theta": [0.25, 0.5, 1.0],
            "stream": {"kind": "choice", "seed": 4, "params": {"values": [0.25, 0.5, 1.0]}}},
    "pdm": {"num_outcomes": 3},
    "discounted": {"gamma": 0.8},
}


#: lengths that end a run inside, on and past the boundaries of 3-round blocks
_BLOCK_LENGTHS = (0, 1, 2, 3, 4, 7, 60)


def _blocks_of_three(monkeypatch, per_round: int) -> None:
    """Let a block of reported or audited rounds hold 3 rounds."""
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 3 * per_round)


def _csv_oracle(rows) -> str:
    """The CSV written one cell at a time: integers by ``str``, reals by
    ``format(v, ".17g")``."""
    def cell(v):
        return str(int(v)) if isinstance(v, (int, np.integer)) else format(float(v), ".17g")
    lines = [CSV_COLUMNS] + [[cell(row[c]) for c in CSV_COLUMNS] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("inst", sorted(_EXTRA))
def test_rows_equal_the_public_metric_functions(inst, n, monkeypatch, tmp_path):
    """Every row equals, exactly, its columns recomputed one public call at a
    time on a replay of the row's action, and the CSV equals its per-cell
    oracle, with rows computed in blocks of 3 rounds, for runs that end
    inside or on a block boundary and with ``c`` absent or given."""
    out = tmp_path / "run.csv"
    raw = base_config(instantiation=inst, n=n, output=str(out), **{
        "stream": {"kind": "uniform_random", "seed": 4}, **_EXTRA[inst]})
    _blocks_of_three(monkeypatch, build_harness(RunConfig.from_dict(raw)).params.m)
    for length in _BLOCK_LENGTHS:
        for c in (None, 0.3):
            cfg = RunConfig.from_dict({**raw, "length": length, "c": c})
            rows = run_simulation(cfg)
            h = build_harness(cfg)
            assert len(rows) == length
            for t, (row, values) in enumerate(zip(rows, stream_generate(cfg.stream)), start=1):
                h.state.apply(values, row["action"])
                z = h.state.profile()
                psi, ct = profile_psi(z, h.params), ct_threshold(t, h.params)
                assert row == {
                    "t": t, "action": row["action"], "max_deficit": float(np.max(z)),
                    "ct_bound": ct, "psi": psi, "disappointed": disappointed_count(z, c or ct),
                    "gini": gini(z), "gmd": gmd(z), "gmd_bound": gmd_bound(psi, h.params)}
            assert out.read_text() == _csv_oracle(rows)


def test_all_zero_profile_inside_a_block(monkeypatch):
    """A block whose middle round has the all-zero profile (Gini's T <= 0
    branch) between rounds that do not: each row still equals its per-round
    public functions."""
    _blocks_of_three(monkeypatch, 2)
    raw = base_config(stream={"kind": "constant", "params": {"value": 1.0}}, length=7)
    rows = run_simulation(RunConfig.from_dict(raw))
    zero = [r["t"] for r in rows if r["max_deficit"] == 0.0]
    assert 2 in zero and 1 not in zero and 3 not in zero
    h = build_harness(RunConfig.from_dict(raw))
    for row in rows:
        h.state.apply([1.0, 1.0], row["action"])
        z = h.state.profile()
        assert (row["gini"], row["gmd"], row["psi"]) == (gini(z), gmd(z), profile_psi(z, h.params))
    assert rows[1]["gini"] == rows[1]["gmd"] == 0.0 and rows[0]["gini"] > 0.0


def _witness_harness(monkeypatch, inst: str, edit) -> None:
    """Give ``inst``'s harness state the witness ``edit(round, witness)`` of
    each prepared item; rounds count from 1 on each run."""
    make = simulate._HARNESSES[inst]

    def build(cfg):
        h, rounds = make(cfg), iter(range(1, cfg.length + 1))
        witness = h.state.witness
        h.state.witness = lambda item: edit(next(rounds), witness(item))
        return h

    monkeypatch.setitem(simulate._HARNESSES, inst, build)


@pytest.mark.parametrize("inst", sorted(_EXTRA))
def test_verify_moments_run_equals_the_per_round_oracle(inst, monkeypatch):
    """Witnesses checked in blocks of 3 rounds fold to the (ok, worst) of the
    round-by-round check, for runs that end inside or on a block boundary;
    a witness that fails gives ok False and a positive worst, and a bad
    reference id at round 5 raises there, as it does round by round."""
    raw = base_config(instantiation=inst, n=3, **{
        "stream": {"kind": "uniform_random", "seed": 9}, **_EXTRA[inst]})
    params = build_harness(RunConfig.from_dict(raw)).params
    _blocks_of_three(monkeypatch, params.m * params.n_ref)
    policies = ("potential",) if inst == "pdm" else ("potential", "util_greedy")
    for policy, length, c in itertools.product(policies, _BLOCK_LENGTHS, (None, 0.3)):
        cfg = RunConfig.from_dict({**raw, "policy": policy, "length": length, "c": c})
        assert verify_moments_run(cfg) == verify_moments_oracle(cfg)
        if length:
            assert verify_moments_run(cfg)[0]

    cfg = RunConfig.from_dict({**raw, "length": 7})
    _witness_harness(monkeypatch, inst,
                     lambda t, w: MomentWitness(w.ref_actions, w.delta + 0.05 * (t == 5)))
    ok, worst = verify_moments_run(cfg)
    assert (ok, worst) == verify_moments_oracle(cfg) and not ok and worst > 0.0

    seen = []

    def bad_at_5(t, w):
        seen.append(t)
        return MomentWitness((0.5,) * len(w.ref_actions) if t == 5 else w.ref_actions, w.delta)

    _witness_harness(monkeypatch, inst, bad_at_5)
    for run in (verify_moments_run, verify_moments_oracle):
        seen.clear()
        with pytest.raises(DimensionMismatch, match="reference action id 0.5 "):
            run(cfg)
        assert seen == [1, 2, 3, 4, 5]


def test_a_block_holds_one_round_past_the_element_budget(monkeypatch):
    """efc with n = 40, L = 3 has m n_ref = 187200 witness entries per round,
    past the block budget: each witness block holds one round."""
    raw = base_config(instantiation="efc", n=40, length=3, **_EXTRA["efc"])
    params = build_harness(RunConfig.from_dict(raw)).params
    assert params.m * params.n_ref > simulate._BLOCK_ELEMENTS
    sizes = []
    check = simulate.check_witness_rows
    monkeypatch.setattr(simulate, "check_witness_rows",
                        lambda rows, *a, **k: sizes.append(len(rows)) or check(rows, *a, **k))
    assert verify_moments_run(RunConfig.from_dict(raw))[0]
    assert sizes == [1, 1, 1]


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_a_propx_run_keeps_one_state_prepared_once_a_round(policy, monkeypatch):
    """Under every policy, ``simulate`` and ``verify-moments`` on propx prepare
    each round once, on the run's own state."""
    prepared = []
    prepare = PropxState.prepare
    monkeypatch.setattr(PropxState, "prepare",
                        lambda state, values: prepared.append(state) or prepare(state, values))
    cfg = RunConfig.from_dict(base_config(policy=policy, length=200, k_max=4,
                                          stream={"kind": "uniform_random", "seed": 3}))
    for run in (run_simulation, verify_moments_run):
        prepared.clear()
        run(cfg)
        assert len(prepared) == 200 and len(set(map(id, prepared))) == 1, run.__name__


def test_the_witness_shift_factor_is_the_states_discount():
    for inst, extra in _EXTRA.items():
        h = build_harness(RunConfig.from_dict(base_config(
            instantiation=inst, n=3, **{"stream": {"kind": "uniform_random", "seed": 9}, **extra})))
        assert h.shift_gamma == h.state.gamma == extra.get("gamma", 1.0), inst


#: sha256 of the CSV of 2000-round uniform_random (seed 3) propx runs under item
#: policies; k_max 6 is read by exp_exact only
ITEM_POLICY_CSV_SHA256 = {
    ("round_robin", 8): "9eabc6dc877c5f2081159d450398f2778082e8046abeace0e5783e9196cb2aed",
    ("deficit_greedy", 8): "9ffb12089cfabfb3880473fec95ff248874a969c1ba3b2ea34dac77c5dc4ee3b",
    ("benade2", 2): "038f4182515e972766f036b1ab4f26dc277618d99488a4f7932fb462e02f4286",
    ("exp_exact", 2): "64d502e7dce4948911f6f9882c4600c158b2e2ecd3c8e5490d6ccb5bcda4c034",
}


@pytest.mark.parametrize("policy,n", sorted(ITEM_POLICY_CSV_SHA256))
def test_item_policy_propx_csv_pinned(policy, n, tmp_path):
    out = tmp_path / "run.csv"
    run_simulation(RunConfig.from_dict(base_config(
        policy=policy, n=n, length=2000, k_max=6, output=str(out),
        stream={"kind": "uniform_random", "seed": 3})))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ITEM_POLICY_CSV_SHA256[policy, n]


def test_a_discounted_runs_policy_reads_its_own_undiscounted_state():
    """A discounted run's item policy decides as the policy played alone over
    the same stream, not as one reading the run's discounted state."""
    cfg = RunConfig.from_dict(base_config(instantiation="discounted", gamma=0.5, n=8,
                                          policy="deficit_greedy", length=300,
                                          stream={"kind": "uniform_random", "seed": 3}))

    def actions(policy):
        return [policy.play(values) for values in stream_generate(cfg.stream)]

    expected = actions(make_policy("deficit_greedy", 8))
    assert [row["action"] for row in run_simulation(cfg)] == expected
    on_discounted = make_policy("deficit_greedy", 8)
    on_discounted.state = PropxState(8, 0.5)
    assert actions(on_discounted) != expected


def test_simulation_zero_length(tmp_path):
    out = tmp_path / "empty.csv"
    cfg = RunConfig.from_dict(base_config(length=0, output=str(out)))
    assert run_simulation(cfg) == []
    assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"


# ---------------------------------------------------------------------------
# Tie-heavy streams: exact ties go to the lowest action id, and actions with
# equal entries get equal potentials.  The sequences were recorded with a
# scalar per-action evaluation of the same rule; near-ties make them
# sensitive to the order in which each action's swap terms are summed.
# ---------------------------------------------------------------------------

ROUND_ROBIN_ALT_ACTIONS = {
    ("propx", 4): (
        "012313302010300212233001122330011223300112233001122330011223300112233001"
        "122330011223300112233001122330011223300112233001122330011223300112233001"
        "12233001122330011223300112233001122330011232200113233001"
    ),
    ("propx", 5): (
        "012341311024034313320242122330400112233440011223344001122334400112233440"
        "011223344001122334400112233440011223344001122334400112233440011223344001"
        "12233440011223344001122334400121133440021223344001122334"
    ),
    ("efx", 4): (
        "001123320123133020103002122330011223300112233001122330011223300112233001"
        "122330011223300112233001122330011223300112233001122330011232200113322001"
        "13322001133220011332200113322001133220011332200113322001"
    ),
    ("efx", 5): (
        "001122344301234131102403431332024212233040011223344001122334400112233440"
        "011223344001122334400112233440011223344001122334400112233440011223344001"
        "12233440011223344001122334400112233440011223344001122334"
    ),
}

EFC_LEDGER_ACTIONS = {
    (3, 1): (
        "012102120120102012012012021012201021012012012012012012012012012012012012"
        "012012012012012012012012012012012012012012012012"
    ),
    (3, 2): (
        "102102102120120102012021012012012011202210021210012201020112012012102012"
        "012012012012012012012012012012012012021021012012"
    ),
    (3, 3): (
        "012102210210120120102112020120120012012120012012012012012012012012012012"
        "012102012012012012012012012201201012012012012012"
    ),
    (8, 1): "041752631057234623017564320674152517036424310765213047562104",
    (8, 2): "140536272135607427401536241375061052643710254637450132672140",
    (8, 3): "032541677142503672345016153426701453062706137245013264754130",
}


def _actions(raw) -> str:
    return "".join(str(r["action"]) for r in run_simulation(RunConfig.from_dict(raw)))


@pytest.mark.parametrize("inst,n", sorted(ROUND_ROBIN_ALT_ACTIONS))
def test_round_robin_alt_tie_actions(inst, n):
    expected = ROUND_ROBIN_ALT_ACTIONS[inst, n]
    raw = base_config(instantiation=inst, n=n, length=len(expected),
                      stream={"kind": "round_robin_alt", "params": {"eps": 0.01}})
    assert _actions(raw) == expected


# Every item policy driven directly (choose, then update) for 48 rounds;
# exp_exact uses k_max = 4 at n = 2 and k_max = 2 at n = 3.
POLICY_TIE_ACTIONS = {
    ("potential", "round_robin_alt", 2): "011001100110011001100110011001100110011001100110",
    ("round_robin", "round_robin_alt", 2): "010101010101010101010101010101010101010101010101",
    ("util_greedy", "round_robin_alt", 2): "011001100110011001100110011001100110011001100110",
    ("deficit_greedy", "round_robin_alt", 2): "011001100110011001100110011001100110011001100110",
    ("benade2", "round_robin_alt", 2): "011001100110011001100110011001100110011001100110",
    ("exp_exact", "round_robin_alt", 2): "001000100010001000100010001000100010001000100010",
    ("constant", "round_robin_alt", 2): "000000000000000000000000000000000000000000000000",
    ("potential", "round_robin_alt", 3): "012110200112200112200112200112200112200112200112",
    ("round_robin", "round_robin_alt", 3): "012012012012012012012012012012012012012012012012",
    ("util_greedy", "round_robin_alt", 3): "000000000000000000000000000000000000000000000000",
    ("deficit_greedy", "round_robin_alt", 3): "012110200112200112200112200112200112200112200112",
    ("exp_exact", "round_robin_alt", 3): "001020001020001020001020001020001020001020001020",
    ("constant", "round_robin_alt", 3): "000000000000000000000000000000000000000000000000",
    ("potential", "table1", 2): "010101010001000100010001000100010001000100010001",
    ("round_robin", "table1", 2): "010101010101010101010101010101010101010101010101",
    ("util_greedy", "table1", 2): "011101010101010101010101010101010101010101010101",
    ("deficit_greedy", "table1", 2): "011010101010101010101010101010101010101010101010",
    ("benade2", "table1", 2): "000101010101010101010101010101010101010101010101",
    ("exp_exact", "table1", 2): "000100010001000100010001000100010001000100010001",
    ("constant", "table1", 2): "000000000000000000000000000000000000000000000000",
    ("potential", "benade_linear", 2): "010101010101010101010000000000000000000000000000",
    ("round_robin", "benade_linear", 2): "010101010101010101010101010101010101010101010101",
    ("util_greedy", "benade_linear", 2): "011111111111011111110000000000000000000000000000",
    ("deficit_greedy", "benade_linear", 2): "010101010101011010101111111111111111111111111111",
    ("benade2", "benade_linear", 2): "000000000000000000000000000000000000000000000000",
    ("exp_exact", "benade_linear", 2): "000000000000000000010000000000000000000000000000",
    ("constant", "benade_linear", 2): "000000000000000000000000000000000000000000000000",
}

TIE_STREAM_PARAMS = {
    "round_robin_alt": {"eps": 0.01},
    "table1": {"eps": 0.01},
    "benade_linear": {"T": 400, "rho": 0.1},
}


def test_policy_tie_actions_cover_every_policy():
    assert {name for name, _, _ in POLICY_TIE_ACTIONS} == set(POLICY_NAMES)


@pytest.mark.parametrize("name,kind,n", sorted(POLICY_TIE_ACTIONS))
def test_policy_tie_actions(name, kind, n):
    expected = POLICY_TIE_ACTIONS[name, kind, n]
    pol = make_policy(name, n, T=400, k_max=4 if n == 2 else 2)
    actions = []
    for v in stream_generate(StreamSpec(kind, n, len(expected), params=TIE_STREAM_PARAMS[kind])):
        a = pol.play(v)
        actions.append(str(a))
    assert "".join(actions) == expected


@pytest.mark.parametrize("n,seed", sorted(EFC_LEDGER_ACTIONS))
def test_efc_ledger_tie_actions(n, seed):
    expected = EFC_LEDGER_ACTIONS[n, seed]
    theta = [0.25, 0.5, 1.0]
    raw = base_config(instantiation="efc", n=n, length=len(expected), theta=theta,
                      stream={"kind": "choice", "seed": seed, "params": {"values": theta}})
    assert _actions(raw) == expected


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def test_csv_byte_identical_across_runs(tmp_path):
    raw = base_config(stream={"kind": "uniform_random", "seed": 42}, length=50)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        run_simulation(RunConfig.from_dict(dict(raw, output=str(out))))
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_csv_roundtrips_through_repr(tmp_path):
    out = tmp_path / "rt.csv"
    raw = base_config(stream={"kind": "uniform_random", "seed": 3}, length=20,
                      output=str(out))
    rows = run_simulation(RunConfig.from_dict(raw))
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    for row, line in zip(rows, lines[1:]):
        cells = line.split(",")
        parsed = dict(zip(CSV_COLUMNS, cells))
        assert int(parsed["t"]) == row["t"]
        assert int(parsed["action"]) == row["action"]
        # .17g round-trips doubles exactly
        assert float(parsed["psi"]) == row["psi"]
        assert float(parsed["max_deficit"]) == row["max_deficit"]


def test_csv_inf_literal(tmp_path):
    out = tmp_path / "inf.csv"
    write_csv([{c: float("inf") if c == "psi" else 0 for c in CSV_COLUMNS}], str(out))
    assert ",inf," in out.read_text()


def test_build_harness_rejects_unknown():
    cfg = RunConfig.from_dict(base_config())
    cfg.instantiation = "bogus"
    with pytest.raises(ConfigInvalid):
        build_harness(cfg)
