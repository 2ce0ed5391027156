"""Simulation orchestration: JSON config, the stream -> candidates -> policy ->
state-update loop, per-round metrics, and deterministic CSV output."""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

import numpy as np

from . import allocation, public_decisions as pdm_mod
from .baselines import (BENADE_T, POLICY_NAMES, ConfigInvalid, StreamSpec, _typed, make_policy,
                        stream_generate)
from .discounted import c_gamma
from .exact_game import K_MAX
from .framework import (ABS_TOL, PotentialParams, RoundState, check_witness_rows,
                        choose_action, ct_threshold, disappointed_rows, psi_rows, witness_row)
from .metrics import gmd_bound, metrics_rows

CSV_COLUMNS = ("t", "action", "max_deficit", "ct_bound", "psi",
               "disappointed", "gini", "gmd", "gmd_bound")
#: one CSV line; "%.17g" writes the bytes of format(v, ".17g"), "inf" included
_CSV_LINE = "%d,%d,%.17g,%.17g,%.17g,%d,%.17g,%.17g,%.17g\n"
#: array elements one block of reported or audited rounds holds (at least one round)
_BLOCK_ELEMENTS = 2 ** 14

#: optional top-level key -> conversion; a key that is absent or null keeps
#: its ``RunConfig`` default
_OPTIONAL_KEYS = {"c": float, "p": float, "theta": list, "num_outcomes": int, "gamma": float,
                  "output": str, "benade_T": int, "k_max": int}
_TOP_KEYS = {"instantiation", "policy", "stream", "n", "length", *_OPTIONAL_KEYS}
_STREAM_KEYS = {"kind", "seed", "params"}


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
    state: RoundState
    params: PotentialParams
    shift_gamma: float = 1.0
    candidates = staticmethod(RoundState.candidates_of)  # (state, round_values) -> CandidateSet
    witness = staticmethod(RoundState.witness_of)  # (state, round_values) -> MomentWitness


#: instantiation -> harness constructor (RunConfig) -> Harness
_HARNESSES = {
    "propx": lambda cfg: Harness(
        allocation.PropxState(cfg.n), allocation.propx_params(cfg.n, cfg.p)),
    "efx": lambda cfg: Harness(
        allocation.EfxState(cfg.n), allocation.efx_params(cfg.n, cfg.p)),
    "efc": lambda cfg: Harness(
        allocation.EfcThresholdState(cfg.n, cfg.theta),
        allocation.efc_params(cfg.n, len(cfg.theta), cfg.p)),
    "pdm": lambda cfg: Harness(
        pdm_mod.PdmState(cfg.n, cfg.num_outcomes), pdm_mod.pdm_params(cfg.n, cfg.p)),
    "discounted": lambda cfg: Harness(
        allocation.PropxState(cfg.n, cfg.gamma), allocation.propx_params(cfg.n, cfg.p),
        shift_gamma=cfg.gamma),
}
INSTANTIATIONS = tuple(_HARNESSES)


def build_harness(cfg: RunConfig) -> Harness:
    if cfg.instantiation not in _HARNESSES:
        raise ConfigInvalid(f"unknown instantiation {cfg.instantiation!r}")
    return _HARNESSES[cfg.instantiation](cfg)


def write_csv(rows, path: str) -> None:
    cells = itemgetter(*CSV_COLUMNS)
    with open(path, "w", newline="") as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        f.writelines(_CSV_LINE % cells(row) for row in rows)


def _blocks(rounds, per_round: int):
    """Consecutive lists of ``rounds`` of at most ``_BLOCK_ELEMENTS`` array
    elements (at least one round) when a round holds ``per_round``."""
    rounds, size = iter(rounds), max(1, _BLOCK_ELEMENTS // per_round)
    while block := list(islice(rounds, size)):
        yield block


def _play(cfg: RunConfig, h: Harness, observe=None):
    """The round loop of ``simulate`` and ``verify-moments``: prepare each
    round once, decide (the potential rule, or the configured item policy,
    picked here once), update, and yield (t, action).  ``observe(item, cands)``
    sees each round's item and candidates, which the potential rule reuses."""
    if cfg.policy == "potential":
        def decide(values, cands):
            return choose_action(cands, h.params)
    else:
        policy = make_policy(cfg.policy, cfg.n, c=cfg.c if cfg.c is not None else 1.0,
                             T=cfg.benade_T, k_max=cfg.k_max)

        def decide(values, cands):
            return policy.play(values)
    build = h.state.candidates if cfg.policy == "potential" or observe else lambda item: None
    observe = observe or (lambda item, cands: None)
    for t, values in enumerate(stream_generate(cfg.stream), start=1):
        item = h.state.prepare(values)
        cands = build(item)
        observe(item, cands)
        action = decide(values, cands)
        h.state.update(item, action)
        yield t, action


def run_simulation(cfg: RunConfig) -> list[dict]:
    """Run one configured simulation and return per-round records, computed per
    block of rounds (and write CSV when cfg.output is set).  Deterministic."""
    h = build_harness(cfg)
    rows = []
    played = ((t, action, h.state.profile()) for t, action in _play(cfg, h))
    for block in _blocks(played, h.params.m):
        ts, actions, z = zip(*block)
        z = np.array(z)
        ct = [ct_threshold(t, h.params) for t in ts]
        psi = psi_rows(z, h.params)
        g, d = metrics_rows(z)
        columns = (ts, actions, z.max(axis=1).tolist(), ct, psi,
                   disappointed_rows(z, ct if cfg.c is None else cfg.c).tolist(),
                   g.tolist(), d.tolist(), gmd_bound(np.array(psi), h.params).tolist())
        rows += [dict(zip(CSV_COLUMNS, row)) for row in zip(*columns)]
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
    """Run the configured policy on the configured instantiation, checking each
    round's moment witness per block of rounds.  Returns (ok, worst_violation)."""
    h = build_harness(cfg)
    ok, worst = True, 0.0
    pending = []

    def check(item, cands):
        pending.append(witness_row(h.state.profile(), cands, h.state.witness(item), h.params))

    for _ in _blocks(_play(cfg, h, check), h.params.m * h.params.n_ref):
        report = check_witness_rows(pending, h.params, gamma=h.shift_gamma)
        pending.clear()
        ok = ok and bool(report.ok.all())
        worst = max(worst, float(report.worst_shift_violation.max()),
                    float(report.worst_first_moment.max()),
                    float(report.worst_second_moment.max()) - h.params.sigma_sq)
    return ok, worst
