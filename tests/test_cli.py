"""End-to-end CLI behavior and exit codes."""
from __future__ import annotations

import json

import pytest

from perpetual import exact_game as eg
from perpetual.baselines import POLICY_NAMES
from perpetual.cli import cli_dispatch
from perpetual.simulate import CSV_COLUMNS


def write_config(tmp_path, **overrides):
    raw = {
        "instantiation": "propx",
        "policy": "potential",
        "stream": {"kind": "table1", "params": {"eps": 0.01}},
        "n": 2,
        "length": 6,
    }
    raw.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_simulate_success(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = cli_dispatch(["simulate", write_config(tmp_path, output=str(out))])
    assert code == 0
    assert "simulated 6 rounds" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 7


def test_simulate_config_error_exit_2(tmp_path, capsys):
    code = cli_dispatch(["simulate", write_config(tmp_path, policy="nope")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert cli_dispatch(["simulate", str(tmp_path / "absent.json")]) == 2


def test_verify_moments_success(tmp_path, capsys):
    cfg = write_config(tmp_path, stream={"kind": "uniform_random", "seed": 11},
                       length=50)
    assert cli_dispatch(["verify-moments", cfg]) == 0
    assert "PASS" in capsys.readouterr().out


def test_lowerbound_prints_violation_round(capsys):
    code = cli_dispatch(["lowerbound", "--n", "2", "--c", "1",
                         "--policy", "round_robin"])
    assert code == 0
    round_no = int(capsys.readouterr().out.strip().splitlines()[-1])
    assert 1 <= round_no <= 9800


def test_lowerbound_no_violation_exit_1(capsys):
    code = cli_dispatch(["lowerbound", "--n", "2", "--c", "1",
                         "--policy", "potential", "--max-rounds", "3"])
    assert code == 1
    assert "no violation" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--n", "2", "--k", "-1"],
    ["--n", "2", "--k", "-3"],
    ["--n", "0", "--k", "1"],
])
def test_exact_frontier_bad_n_or_k_exit_2(capsys, argv):
    assert cli_dispatch(["exact", "frontier", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


def test_exact_aux_one_agent_exit_2(capsys):
    assert cli_dispatch(["exact", "aux", "--n", "1", "--state", "1"]) == 2
    assert "at least 2 agents" in capsys.readouterr().err


def test_lowerbound_nonpositive_max_rounds_exit_2(capsys):
    code = cli_dispatch(["lowerbound", "--n", "2", "--c", "1",
                         "--policy", "potential", "--max-rounds", "0"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-rounds" in captured.err


@pytest.mark.parametrize("c", ["inf", "-inf", "nan", "1e200"])
def test_lowerbound_nonfinite_c_or_horizon_exit_2(capsys, c):
    """A non-finite --c, or one whose default horizon 4900 n c^2 overflows."""
    code = cli_dispatch(["lowerbound", "--n", "2", f"--c={c}", "--policy", "round_robin"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error") and "--c" in captured.err


def test_lowerbound_default_horizon_past_2_53_exit_2(capsys):
    """4900 n c^2 = 9.8e303 is finite, but no int round count holds it exactly;
    the run would not end, so the config is refused at once."""
    code = cli_dispatch(["lowerbound", "--n", "2", "--c", "1e150", "--policy", "round_robin"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error") and "--c" in captured.err
    assert "--max-rounds" in captured.err
    # with an explicit round count the same --c runs (and survives 3 rounds)
    assert cli_dispatch(["lowerbound", "--n", "2", "--c", "1e150", "--policy", "round_robin",
                         "--max-rounds", "3"]) == 1


@pytest.mark.parametrize("policy", ["round_robin", "potential"])
def test_lowerbound_one_agent_exit_2(capsys, policy):
    code = cli_dispatch(["lowerbound", "--n", "1", "--c", "1", "--policy", policy])
    assert code == 2
    assert "at least 2 agents" in capsys.readouterr().err


def test_exact_aux_cli(capsys):
    assert cli_dispatch(["exact", "aux", "--n", "2", "--state", "0,0"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    # default state is n*c per coordinate: (2, 2) needs k_max > 9
    assert cli_dispatch(["exact", "aux", "--n", "2", "--k-max", "3"]) == 1
    assert "exceeded" in capsys.readouterr().out


def test_exact_aux_readme_game_value_c_9_8(capsys):
    """The README table's n = 2 game value for c = 9/8."""
    assert cli_dispatch(["exact", "aux", "--n", "2", "--c", "9/8", "--k-max", "13"]) == 0
    assert capsys.readouterr().out.strip() == "13"


def test_exact_aux_bad_state_exit_2(capsys):
    assert cli_dispatch(["exact", "aux", "--n", "2", "--state", "1,2,3"]) == 2
    assert cli_dispatch(["exact", "aux", "--n", "2", "--state", "x,y"]) == 2


@pytest.mark.parametrize("c", ["1/0", "x", "1,2"])
def test_exact_aux_bad_c_exit_2(capsys, c):
    """A bad --c is refused whether or not --state makes it unused."""
    for state in ([], ["--state", "1,1"]):
        assert cli_dispatch(["exact", "aux", "--n", "2", "--c", c, *state]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error") and "--c" in captured.err


def test_exact_frontier_cli(tmp_path, capsys):
    out = tmp_path / "d1.csv"
    assert cli_dispatch(["exact", "frontier", "--n", "2", "--k", "1",
                         "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x0,x1"
    assert set(lines[1:]) == {"inf,0", "1,1", "0,inf"}


def test_exact_exp_cli(capsys):
    assert cli_dispatch(["exact", "exp", "--n", "2", "--state", "0,3",
                         "--item", "1,1", "--k-max", "4"]) == 0
    assert capsys.readouterr().out.strip() == "0"


@pytest.mark.parametrize("argv", [
    ["aux", "--n", "2"],
    ["frontier", "--n", "3", "--k", "2"],
    ["exp", "--n", "2", "--state", "0,3", "--item", "1,1", "--k-max", "4"],
])
def test_exact_progress_on_stderr_only(capsys, argv):
    """--progress prints one k, |D^k|, seconds line per built level to
    stderr and leaves stdout byte for byte as it is without the flag."""
    assert cli_dispatch(["exact", *argv]) in (0, 1)
    plain = capsys.readouterr()
    assert plain.err == ""
    assert cli_dispatch(["exact", *argv, "--progress"]) in (0, 1)
    shown = capsys.readouterr()
    assert shown.out == plain.out
    lines = [line.split() for line in shown.err.splitlines()]
    n = int(argv[2])
    builder = eg.FrontierBuilder(n)
    assert [k for (k, _, _) in lines] == [f"k={k}" for k in range(1, len(lines) + 1)]
    assert [p for (_, p, _) in lines] == [f"points={len(builder.get(k))}"
                                          for k in range(1, len(lines) + 1)]
    assert all(float(s.removeprefix("seconds=")) >= 0 for (_, _, s) in lines)
    assert len(lines) >= 2


@pytest.mark.parametrize("overrides", [
    {"window": 3},  # not a config key
    {"instantiation": "pdm", "num_outcomes": 3},  # pdm on the table1 stream
    {"instantiation": "discounted", "gamma": 1.0},  # the discounted bounds need gamma < 1
    {"gamma": 0.5},  # the default propx run would ignore it
])
def test_config_errors_exit_2(tmp_path, capsys, overrides):
    assert cli_dispatch(["simulate", write_config(tmp_path, **overrides)]) == 2
    assert "config error" in capsys.readouterr().err


def test_nonfinite_item_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, stream={"kind": "constant", "params": {"value": [0.5, "inf"]}})
    assert cli_dispatch(["simulate", cfg]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("n,stream,names", [
    (2, {"kind": "choice", "seed": 1}, ("choice", "'values'")),
    (2, {"kind": "choice", "seed": 1, "params": {"values": []}}, ("choice", "'values'")),
    (2, {"kind": "window_cycle", "params": {"cycle": []}}, ("window_cycle", "'cycle'")),
    (2, {"kind": "constant", "params": {"value": [1, 1, 1]}}, ("constant", "'value'")),
    (3, {"kind": "constant", "params": {"value": [1, 1]}}, ("constant", "'value'")),
    (3, {"kind": "table1"}, ("table1", "n = 2")),
    (2, {"kind": "table1", "params": {"epsilon": 0.5}}, ("table1", "'epsilon'")),
    (2, {"kind": "bernoulli", "seed": 1, "params": {"prob": 7}}, ("bernoulli", "'prob'")),
    (2, {"kind": "bernoulli", "seed": 1, "params": {"prob": -1}}, ("bernoulli", "'prob'")),
    (2, {"kind": "bernoulli", "seed": 1, "params": {"prob": float("nan")}},
     ("bernoulli", "'prob'")),
    (2, {"kind": "round_robin_alt", "params": {"eps": -0.5}}, ("round_robin_alt", "'eps'")),
    (2, {"kind": "benade_linear", "params": {"rho": -1}}, ("benade_linear", "'rho'")),
    (2, {"kind": "window_cycle", "params": {"cycle": [1, -0.3]}}, ("window_cycle", "'cycle'")),
    (2, {"kind": "choice", "seed": 1, "params": {"values": [-1]}}, ("choice", "'values'")),
    (2, {"kind": "benade_linear", "params": {"T": -4}}, ("benade_linear", "'T'")),
])
def test_bad_stream_params_exit_2(tmp_path, capsys, n, stream, names):
    assert cli_dispatch(["simulate", write_config(tmp_path, n=n, stream=stream)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and all(name in err for name in names)


@pytest.mark.parametrize("stream,key", [
    ({"kind": "choice", "seed": 1, "params": {"values": "12"}}, "'values'"),
    ({"kind": "window_cycle", "params": {"cycle": "13"}}, "'cycle'"),
    ({"kind": "table1", "params": {"eps": "0.5"}}, "'eps'"),
    ({"kind": "round_robin_alt", "params": {"eps": True}}, "'eps'"),
    ({"kind": "bernoulli", "seed": 1, "params": {"prob": "0.5"}}, "'prob'"),
    ({"kind": "constant", "params": {"value": "1"}}, "'value'"),
    ({"kind": "constant", "params": {"value": [True, False]}}, "'value'"),
    ({"kind": "benade_linear", "params": {"rho": "0.1"}}, "'rho'"),
])
def test_stream_params_of_the_wrong_json_type_exit_2(tmp_path, capsys, monkeypatch, stream, key):
    """Stream params pass the JSON type check of the top-level keys: a string
    or a bool where a number or a list of numbers belongs is a config error
    naming the kind and the key, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    assert cli_dispatch(["simulate", write_config(tmp_path, stream=stream)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and stream["kind"] in err and key in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("seed", [1.9, True, "7", -1, 2**64, 2**64 + 5, [3]])
def test_seed_outside_64_bit_integers_exit_2(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, stream={"kind": "uniform_random", "seed": seed})
    assert cli_dispatch(["simulate", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "uniform_random" in err and "seed" in err


def test_pdm_one_outcome_runs(tmp_path, capsys):
    cfg = write_config(tmp_path, instantiation="pdm", num_outcomes=1, length=20,
                       stream={"kind": "uniform_random", "seed": 3})
    assert cli_dispatch(["simulate", cfg]) == 0
    assert cli_dispatch(["verify-moments", cfg]) == 0


@pytest.mark.parametrize("key,value", [("benade_T", 0), ("benade_T", -5), ("k_max", -1)])
def test_out_of_range_run_keys_exit_2(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, policy="benade2" if key == "benade_T" else "exp_exact",
                       **{key: value})
    assert cli_dispatch(["simulate", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err


_UNIFORM = {"kind": "uniform_random", "seed": 1}


@pytest.mark.parametrize("overrides,key", [
    ({"n": 2.7, "length": 3.9}, "'n'"),
    ({"length": 3.9}, "'length'"),
    ({"length": True}, "'length'"),
    ({"instantiation": "pdm", "num_outcomes": 2.5, "stream": _UNIFORM}, "'num_outcomes'"),
    ({"policy": "benade2", "benade_T": 2.0}, "'benade_T'"),
    ({"policy": "exp_exact", "k_max": True}, "'k_max'"),
    ({"c": True}, "'c'"),
    ({"c": float("inf")}, "'c'"),
    ({"c": 10 ** 400}, "'c'"),
    ({"p": float("nan")}, "'p'"),
    ({"p": "0.5"}, "'p'"),
    ({"instantiation": "discounted", "gamma": False}, "'gamma'"),
    ({"output": 7}, "'output'"),
    ({"instantiation": "efc", "theta": "12"}, "'theta'"),
    ({"instantiation": "efc", "theta": [1, "2"]}, "'theta'"),
    ({"instantiation": "efc", "theta": [1, True]}, "'theta'"),
    ({"stream": {"kind": "benade_linear", "params": {"T": 2.9}}}, "'T'"),
    ({"stream": {"kind": "benade_linear", "params": {"T": True}}}, "'T'"),
])
def test_config_values_of_the_wrong_json_type_exit_2(tmp_path, capsys, monkeypatch,
                                                    overrides, key):
    """A value is never converted to the type its key needs: a fraction, a
    bool or a string where an integer, a number, a string or a list of numbers
    belongs is a config error naming the key, and nothing is written.  A
    number must also be finite as a double (inf, NaN and 10^400 are not)."""
    monkeypatch.chdir(tmp_path)
    assert cli_dispatch(["simulate", write_config(tmp_path, **overrides)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("cmd", ["simulate", "verify-moments"])
def test_p_whose_square_overflows_exit_2(tmp_path, capsys, monkeypatch, cmd):
    """A finite p with 4 p^2 past the doubles would make every potential
    term NaN; it exits 2 naming 'p' before a round runs."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, n=4, length=5, p=1e200, output="run.csv",
                       stream={"kind": "uniform_random", "seed": 3})
    assert cli_dispatch([cmd, cfg]) == 2
    assert "'p'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("cmd", ["simulate", "verify-moments"])
def test_negative_c_is_a_config_error(tmp_path, capsys, cmd, policy):
    assert cli_dispatch([cmd, write_config(tmp_path, policy=policy, c=-5)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'c'" in err


@pytest.mark.parametrize("policy", ["potential", "exp_exact"])
@pytest.mark.parametrize("cmd", ["simulate", "verify-moments"])
def test_zero_c_runs(tmp_path, capsys, cmd, policy):
    assert cli_dispatch([cmd, write_config(tmp_path, policy=policy, c=0)]) == 0


def test_config_numbers_of_the_right_json_type_run(tmp_path, capsys):
    """An integer where a number belongs is a number: ``c`` 1 and ``p`` 0 run."""
    assert cli_dispatch(["simulate", write_config(tmp_path, c=1, p=0)]) == 0


def test_discounted_exit_code_uses_c_gamma(tmp_path, capsys):
    # the discounted deficit of the starved agent tends to 1/2 / (1 - 0.98) = 25,
    # above c_gamma = 18.36 but below ct_threshold(t) on every round
    cfg = write_config(tmp_path, instantiation="discounted", gamma=0.98, policy="constant",
                       length=2000, stream={"kind": "constant", "params": {"value": 1}})
    assert cli_dispatch(["simulate", cfg]) == 1
    assert "bound violations: 1935" in capsys.readouterr().out


def test_out_of_memory_exit_2(tmp_path, capsys, monkeypatch):
    """A run too large for memory is refused with exit 2, not a traceback."""
    def too_large(cfg):
        raise MemoryError("Unable to allocate 298. GiB")

    monkeypatch.setattr("perpetual.cli.run_simulation", too_large)
    assert cli_dispatch(["simulate", write_config(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and "Traceback" not in err


DEEP_N2 = [
    ["exact", "aux", "--n", "2", "--state", "3,3"],
    ["simulate", {"policy": "exp_exact", "length": 5,
                  "stream": {"kind": "uniform_random", "seed": 1}}],
]


def _argv(tmp_path, argv):
    return ["simulate", write_config(tmp_path, **argv[1])] if argv[0] == "simulate" else argv


@pytest.mark.parametrize("argv", DEEP_N2)
def test_frontier_cap_exit_2(tmp_path, capsys, monkeypatch, argv):
    # both answers search n = 2 up to D^12; a 1000-point cap stops the build at D^10
    monkeypatch.setattr(eg, "FRONTIER_CAP", 1000)
    assert cli_dispatch(_argv(tmp_path, argv)) == 2
    captured = capsys.readouterr()
    assert "1000 points" in captured.err and "cap" in captured.err


def test_frontier_cap_exit_2_n3(tmp_path, capsys, monkeypatch):
    """n = 3 D^3 has 31 points: a cap of 30 refuses it with exit 2."""
    monkeypatch.setattr(eg, "FRONTIER_CAP", 30)
    out = tmp_path / "d3.csv"
    assert cli_dispatch(["exact", "frontier", "--n", "3", "--k", "3", "--out", str(out)]) == 2
    assert "30 points" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setattr(eg, "FRONTIER_CAP", 31)
    assert cli_dispatch(["exact", "frontier", "--n", "3", "--k", "3", "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 32


def test_deep_n2_states_answered(tmp_path, capsys):
    """Under the default 10^6 cap, answers that search n = 2 up to D^12."""
    assert cli_dispatch(DEEP_N2[0]) == 1
    assert capsys.readouterr().out.strip() == "exceeded (no forced violation within k_max=12)"
    assert cli_dispatch(_argv(tmp_path, DEEP_N2[1])) == 0
    assert "simulated 5 rounds" in capsys.readouterr().out


def test_exact_exp_has_no_c_flag():
    with pytest.raises(SystemExit):
        cli_dispatch(["exact", "exp", "--n", "2", "--state", "0,3", "--item", "1,1",
                      "--c", "1"])


@pytest.mark.parametrize("policy", ["potential", "util_greedy"])
def test_efc_round_off_the_ledger_exits_2_alike(tmp_path, capsys, policy):
    """A round off the efc ledger is rejected where the round is prepared, so
    ``simulate`` and ``verify-moments`` stop with one message, whatever the
    policy."""
    cfg = write_config(tmp_path, instantiation="efc", policy=policy, n=3, theta=[0.5, 1.0],
                       stream={"kind": "uniform_random", "seed": 3})
    errs = []
    for cmd in ("simulate", "verify-moments"):
        assert cli_dispatch([cmd, cfg]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("error: value ") and "not in the declared ledger" in errs[0]
