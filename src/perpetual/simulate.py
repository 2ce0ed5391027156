"""Simulation orchestration: JSON config, the stream -> candidates -> policy ->
state-update loop, per-round metrics, and deterministic CSV output."""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import allocation, public_decisions as pdm_mod
from .baselines import (
    POLICY_NAMES,
    RANDOM_KINDS,
    STREAM_KINDS,
    StreamSpec,
    make_policy,
    stream_generate,
)
from .framework import PotentialParams, choose_action, disappointed_count, profile_psi, ct_threshold
from .metrics import gini, gmd, gmd_bound

INSTANTIATIONS = ("propx", "efx", "efc", "pdm", "discounted")

CSV_COLUMNS = ("t", "action", "max_deficit", "ct_bound", "psi",
               "disappointed", "gini", "gmd", "gmd_bound")

_TOP_KEYS = {
    "instantiation", "policy", "stream", "n", "length", "c", "p", "theta",
    "num_outcomes", "gamma", "seed", "output", "benade_T", "k_max",
}
_STREAM_KEYS = {"kind", "seed", "params"}


class ConfigInvalid(ValueError):
    pass


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
    benade_T: int = 400
    k_max: int = 12

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigInvalid("config must be a JSON object")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
        for key in ("instantiation", "policy", "stream", "n", "length"):
            if key not in raw:
                raise ConfigInvalid(f"missing required key {key!r}")
        inst = raw["instantiation"]
        if inst not in INSTANTIATIONS:
            raise ConfigInvalid(f"unknown instantiation {inst!r}")
        policy = raw["policy"]
        if policy not in POLICY_NAMES:
            raise ConfigInvalid(f"unknown policy {policy!r}")
        n = int(raw["n"])
        length = int(raw["length"])
        if n < 2 or length < 0:
            raise ConfigInvalid("need n >= 2 and length >= 0")

        sraw = raw["stream"]
        if not isinstance(sraw, dict):
            raise ConfigInvalid("stream must be a JSON object")
        s_unknown = set(sraw) - _STREAM_KEYS
        if s_unknown:
            raise ConfigInvalid(f"unknown stream keys: {sorted(s_unknown)}")
        kind = sraw.get("kind")
        if kind not in STREAM_KINDS:
            raise ConfigInvalid(f"unknown stream kind {kind!r}")
        seed = sraw.get("seed", raw.get("seed"))
        if kind in RANDOM_KINDS and seed is None:
            raise ConfigInvalid(f"stream kind {kind!r} requires a seed")
        width = 1
        if inst == "pdm":
            if raw.get("num_outcomes") is None:
                raise ConfigInvalid("pdm requires num_outcomes")
            width = int(raw["num_outcomes"])
            if policy != "potential":
                raise ConfigInvalid("pdm supports only the potential policy")
            if kind not in RANDOM_KINDS:
                raise ConfigInvalid("pdm requires a random stream kind")
        if inst == "efc" and not raw.get("theta"):
            raise ConfigInvalid("efc requires a nonempty theta ledger")
        if inst == "discounted" and (raw.get("gamma") is None
                                     or not 0.0 < float(raw["gamma"]) < 1.0):
            raise ConfigInvalid("discounted requires gamma in (0, 1)")
        if policy == "benade2" and n != 2:
            raise ConfigInvalid("benade2 requires n = 2")

        try:
            spec = StreamSpec(kind=kind, n=n, length=length,
                              seed=int(seed or 0), params=sraw.get("params", {}),
                              width=width)
        except ValueError as e:
            raise ConfigInvalid(str(e)) from e
        return cls(
            instantiation=inst, policy=policy, stream=spec, n=n, length=length,
            c=None if raw.get("c") is None else float(raw["c"]),
            p=float(raw.get("p", 0.0)),
            theta=raw.get("theta"),
            num_outcomes=raw.get("num_outcomes"),
            gamma=None if raw.get("gamma") is None else float(raw["gamma"]),
            output=raw.get("output"),
            benade_T=int(raw.get("benade_T", 400)),
            k_max=int(raw.get("k_max", 12)),
        )

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
    witness: callable | None = None
    shift_gamma: float = 1.0


def build_harness(cfg: RunConfig) -> Harness:
    n = cfg.n
    if cfg.instantiation == "propx":
        return Harness(allocation.PropxState(n), allocation.propx_params(n, cfg.p),
                       allocation.propx_candidates, allocation.propx_witness)
    if cfg.instantiation == "efx":
        return Harness(allocation.EfxState(n), allocation.efx_params(n, cfg.p),
                       allocation.efx_candidates, allocation.efx_witness)
    if cfg.instantiation == "efc":
        state = allocation.EfcThresholdState(n, cfg.theta)
        return Harness(state, allocation.efc_params(n, state.L, cfg.p),
                       allocation.efc_candidates, allocation.efc_witness)
    if cfg.instantiation == "pdm":
        return Harness(pdm_mod.PdmState(n, cfg.num_outcomes), pdm_mod.pdm_params(n, cfg.p),
                       pdm_mod.pdm_candidates, pdm_mod.pdm_witness)
    if cfg.instantiation == "discounted":
        return Harness(allocation.PropxState(n, cfg.gamma), allocation.propx_params(n, cfg.p),
                       allocation.propx_candidates, allocation.propx_witness,
                       shift_gamma=cfg.gamma)
    raise ConfigInvalid(cfg.instantiation)


def _format_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if f == float("inf"):
        return "inf"
    return format(f, ".17g")


def write_csv(rows, path_or_file) -> None:
    close = False
    if isinstance(path_or_file, str):
        f = open(path_or_file, "w", newline="")
        close = True
    else:
        f = path_or_file
    try:
        f.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            f.write(",".join(_format_cell(row[c]) for c in CSV_COLUMNS) + "\n")
    finally:
        if close:
            f.close()


def run_simulation(cfg: RunConfig) -> list[dict]:
    """Run one configured simulation and return per-round records (and write
    CSV when cfg.output is set).  Deterministic given the config."""
    h = build_harness(cfg)
    item_policy = None
    if cfg.policy != "potential":
        item_policy = make_policy(cfg.policy, cfg.n, c=cfg.c if cfg.c is not None else 1.0,
                                  T=cfg.benade_T, k_max=cfg.k_max)
    rows = []
    for t, values in enumerate(stream_generate(cfg.stream), start=1):
        if cfg.policy == "potential":
            action = choose_action(h.candidates(h.state, values), h.params)
        else:
            action = item_policy.choose(values)
            item_policy.update(values, action)
        h.state.apply(values, action)

        z = h.state.profile()
        psi = profile_psi(z, h.params)
        ct = ct_threshold(t, h.params)
        c_ref = cfg.c if cfg.c is not None else ct
        rows.append({
            "t": t,
            "action": action,
            "max_deficit": float(np.max(z)) if len(z) else 0.0,
            "ct_bound": ct,
            "psi": psi,
            "disappointed": disappointed_count(z, c_ref),
            "gini": gini(z),
            "gmd": gmd(z),
            "gmd_bound": gmd_bound(psi, h.params),
        })
    if cfg.output:
        write_csv(rows, cfg.output)
    return rows


def verify_moments_run(cfg: RunConfig, tol: float = 1e-9):
    """Run the potential rule on the configured instantiation, building and
    checking the moment witness every round.  Returns (ok, worst_violation)."""
    from .framework import verify_moment_witness

    h = build_harness(cfg)
    if h.witness is None:
        raise ConfigInvalid(f"no witness constructor for {cfg.instantiation}")
    ok = True
    worst = 0.0
    for values in stream_generate(cfg.stream):
        z_prev = h.state.profile()
        cands = h.candidates(h.state, values)
        w = h.witness(h.state, values)
        report = verify_moment_witness(z_prev, cands, w, h.params, tol=tol,
                                       gamma=h.shift_gamma)
        if not report.ok:
            ok = False
        worst = max(worst, report.worst_shift_violation, report.worst_first_moment,
                    max(0.0, report.worst_second_moment - h.params.sigma_sq))
        action = choose_action(cands, h.params)
        h.state.apply(values, action)
    return ok, worst
