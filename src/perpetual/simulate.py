"""Simulation orchestration: JSON config, the stream -> candidates -> policy ->
state-update loop, per-round metrics, and deterministic CSV output."""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from . import allocation, public_decisions as pdm_mod
from .baselines import BENADE_T, POLICY_NAMES, StreamSpec, make_policy, stream_generate
from .discounted import c_gamma
from .exact_game import K_MAX
from .framework import (ABS_TOL, PotentialParams, choose_action, ct_threshold,
                        disappointed_count, profile_psi, verify_moment_witness)
from .metrics import gmd_bound, metrics

CSV_COLUMNS = ("t", "action", "max_deficit", "ct_bound", "psi",
               "disappointed", "gini", "gmd", "gmd_bound")

#: optional top-level key -> conversion; a key that is absent or null keeps
#: its ``RunConfig`` default
_OPTIONAL_KEYS = {"c": float, "p": float, "theta": list, "num_outcomes": int, "gamma": float,
                  "output": str, "benade_T": int, "k_max": int}
_TOP_KEYS = {"instantiation", "policy", "stream", "n", "length", *_OPTIONAL_KEYS}
_STREAM_KEYS = {"kind", "seed", "params"}
#: conversion -> (what the JSON value must be, the types it may load as: a bool is no number)
_JSON_TYPES = {int: ("an integer", (int,)), float: ("a finite number", (int, float)),
               str: ("a string", (str,)), list: ("a list of numbers", (list,))}


class ConfigInvalid(ValueError):
    pass


def _typed(key: str, value, convert):
    what, types = _JSON_TYPES[convert]
    if type(value) not in types or convert is float and not abs(value) <= sys.float_info.max:
        raise ConfigInvalid(f"{key!r} must be {what}, got {value!r}")
    return [_typed(key, v, float) for v in value] if convert is list else convert(value)


def _check_object(raw, keys: set, what: str) -> None:
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"{what} must be a JSON object")
    if set(raw) - keys:
        raise ConfigInvalid(f"unknown {what} keys: {sorted(set(raw) - keys)}")


@dataclass
class RunConfig:
    instantiation: str
    policy: str
    stream: StreamSpec
    n: int
    length: int
    c: float | None = None
    p: float = 0.0
    theta: list | None = None
    num_outcomes: int | None = None
    gamma: float | None = None
    output: str | None = None
    benade_T: int = BENADE_T
    k_max: int = K_MAX

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _check_object(raw, _TOP_KEYS, "config")
        for key in ("instantiation", "policy", "stream", "n", "length"):
            if key not in raw:
                raise ConfigInvalid(f"missing required key {key!r}")
        inst = raw["instantiation"]
        if inst not in INSTANTIATIONS:
            raise ConfigInvalid(f"unknown instantiation {inst!r}")
        policy = raw["policy"]
        if policy not in POLICY_NAMES:
            raise ConfigInvalid(f"unknown policy {policy!r}")
        n, length = _typed("n", raw["n"], int), _typed("length", raw["length"], int)
        opt = {key: _typed(key, raw[key], convert) for key, convert in _OPTIONAL_KEYS.items()
               if raw.get(key) is not None}
        for key, reader in (("gamma", "discounted"), ("theta", "efc"), ("num_outcomes", "pdm")):
            if key in opt and inst != reader:
                raise ConfigInvalid(f"{key!r} is read only by the {reader} instantiation")
        if n < 2 or length < 0:
            raise ConfigInvalid("need n >= 2 and length >= 0")
        for key, least in (("c", 0), ("benade_T", 1), ("k_max", 0)):
            if opt.get(key, least) < least:
                raise ConfigInvalid(f"{key!r} must be >= {least}")
        if inst == "pdm" and "num_outcomes" not in opt:
            raise ConfigInvalid("pdm requires num_outcomes")
        if inst == "pdm" and policy != "potential":
            raise ConfigInvalid("pdm supports only the potential policy")
        if inst == "efc" and not opt.get("theta"):
            raise ConfigInvalid("efc requires a nonempty theta ledger")
        if inst == "discounted" and not 0.0 < opt.get("gamma", 0.0) < 1.0:
            raise ConfigInvalid("discounted requires gamma in (0, 1)")
        if policy == "benade2" and n != 2:
            raise ConfigInvalid("benade2 requires n = 2")

        sraw = raw["stream"]
        _check_object(sraw, _STREAM_KEYS, "stream")
        try:
            spec = StreamSpec(kind=sraw.get("kind"), n=n, length=length,
                              seed=sraw.get("seed"),
                              params=sraw.get("params", {}),
                              width=opt.get("num_outcomes"))
        except (TypeError, ValueError) as e:
            raise ConfigInvalid(str(e)) from e
        return cls(instantiation=inst, policy=policy, stream=spec, n=n, length=length, **opt)

    @classmethod
    def from_json_file(cls, path: str) -> "RunConfig":
        try:
            with open(path) as f:
                raw = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigInvalid(f"cannot read config {path}: {e}") from e
        return cls.from_dict(raw)


@dataclass
class Harness:
    """Instantiation-specific hooks used by the main loop."""
    state: object
    params: PotentialParams
    candidates: callable  # (state, round_values) -> CandidateSet
    witness: callable  # (state, round_values) -> MomentWitness
    shift_gamma: float = 1.0


#: instantiation -> harness constructor (RunConfig) -> Harness
_HARNESSES = {
    "propx": lambda cfg: Harness(
        allocation.PropxState(cfg.n), allocation.propx_params(cfg.n, cfg.p),
        allocation.propx_candidates, allocation.propx_witness),
    "efx": lambda cfg: Harness(
        allocation.EfxState(cfg.n), allocation.efx_params(cfg.n, cfg.p),
        allocation.efx_candidates, allocation.efx_witness),
    "efc": lambda cfg: Harness(
        allocation.EfcThresholdState(cfg.n, cfg.theta),
        allocation.efc_params(cfg.n, len(cfg.theta), cfg.p),
        allocation.efc_candidates, allocation.efc_witness),
    "pdm": lambda cfg: Harness(
        pdm_mod.PdmState(cfg.n, cfg.num_outcomes), pdm_mod.pdm_params(cfg.n, cfg.p),
        pdm_mod.pdm_candidates, pdm_mod.pdm_witness),
    "discounted": lambda cfg: Harness(
        allocation.PropxState(cfg.n, cfg.gamma), allocation.propx_params(cfg.n, cfg.p),
        allocation.propx_candidates, allocation.propx_witness, shift_gamma=cfg.gamma),
}
INSTANTIATIONS = tuple(_HARNESSES)


def build_harness(cfg: RunConfig) -> Harness:
    if cfg.instantiation not in _HARNESSES:
        raise ConfigInvalid(f"unknown instantiation {cfg.instantiation!r}")
    return _HARNESSES[cfg.instantiation](cfg)


def _format_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_csv(rows, path: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            f.write(",".join(_format_cell(row[c]) for c in CSV_COLUMNS) + "\n")


def _play(cfg: RunConfig, h: Harness, observe=None):
    """The round loop of ``simulate`` and ``verify-moments``: yield each
    round's (t, action) once the harness state has applied it.  The decision
    function is picked here, once: the potential rule over the harness, or the
    configured item policy.  ``observe(values, cands)`` sees each round's
    candidate set on the pre-round state; the potential rule reuses that set."""
    if cfg.policy == "potential":
        def decide(values, cands):
            return choose_action(cands, h.params)
    else:
        policy = make_policy(cfg.policy, cfg.n, c=cfg.c if cfg.c is not None else 1.0,
                             T=cfg.benade_T, k_max=cfg.k_max)

        def decide(values, cands):
            action = policy.choose(values)
            policy.update(values, action)
            return action
    build = h.candidates if cfg.policy == "potential" or observe else lambda state, values: None
    observe = observe or (lambda values, cands: None)
    for t, values in enumerate(stream_generate(cfg.stream), start=1):
        cands = build(h.state, values)
        observe(values, cands)
        action = decide(values, cands)
        h.state.apply(values, action)
        yield t, action


def run_simulation(cfg: RunConfig) -> list[dict]:
    """Run one configured simulation and return per-round records (and write
    CSV when cfg.output is set).  Deterministic given the config."""
    h = build_harness(cfg)
    rows = []
    for t, action in _play(cfg, h):
        z = h.state.profile()
        psi = profile_psi(z, h.params)
        ct = ct_threshold(t, h.params)
        c_ref = cfg.c if cfg.c is not None else ct
        g, d = metrics(z)
        rows.append({
            "t": t,
            "action": action,
            "max_deficit": float(z.max()),
            "ct_bound": ct,
            "psi": psi,
            "disappointed": disappointed_count(z, c_ref),
            "gini": g,
            "gmd": d,
            "gmd_bound": gmd_bound(psi, h.params),
        })
    if cfg.output:
        write_csv(rows, cfg.output)
    return rows


def bound_violations(cfg: RunConfig, rows: list[dict]) -> int:
    """Rounds whose max deficit exceeds the paper's bound for the run: the
    time-uniform c_gamma for discounted, ct_threshold(t) (the CSV's
    ``ct_bound``) otherwise."""
    if cfg.instantiation == "discounted":
        bound = c_gamma(allocation.propx_params(cfg.n, cfg.p), cfg.gamma)
        return sum(r["max_deficit"] > bound + ABS_TOL for r in rows)
    return sum(r["max_deficit"] > r["ct_bound"] + ABS_TOL for r in rows)


def verify_moments_run(cfg: RunConfig):
    """Run the configured policy on the configured instantiation, building and
    checking the moment witness every round.  Returns (ok, worst_violation)."""
    h = build_harness(cfg)
    ok, worst = True, 0.0

    def check(values, cands):
        nonlocal ok, worst
        report = verify_moment_witness(h.state.profile(), cands, h.witness(h.state, values),
                                       h.params, gamma=h.shift_gamma)
        ok = ok and report.ok
        worst = max(worst, report.worst_shift_violation, report.worst_first_moment,
                    max(0.0, report.worst_second_moment - h.params.sigma_sq))

    for _ in _play(cfg, h, check):
        pass
    return ok, worst
