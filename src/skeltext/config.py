"""Run configuration: one JSON file, flag overrides win, env seed override."""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

SEED_ENV_VAR = "SANA_SEED"


def read_json(path: str):
    """The JSON value a file holds; a ValueError naming the file if it holds none."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as err:  # not JSON, not UTF-8, or nested too deep
        raise ValueError(f"{path}: not a JSON file: {type(err).__name__}: {err}") from None


@dataclass
class RunConfig:
    # model dimensions (desk defaults; published_preset() restores the published setup)
    d_model: int = 64
    d_hidden: int = 128
    n_heads: int = 2
    n_layers: int = 2
    token_dim: int = 48
    key_dim: int = 16
    pos_dim: int = 8
    pos_clamp: int = 30
    vocab_cap: int = 50_000
    # stage 2
    lambda_del: float = 1.0
    k_max: int = 8
    max_iter: int = 10
    max_state_len: int = 512
    # stage 1 decoding
    beam_width: int = 5
    beam_length_normalize: bool = False
    max_skeleton_len: int = 64
    # optimization
    pointer_peak_lr: float = 2e-3
    pointer_warmup: int = 150
    pointer_epochs: int = 22
    editor_peak_lr: float = 1.5e-3
    editor_warmup: int = 200
    editor_epochs: int = 40
    batch_size: int = 8
    # metrics
    lambda_mix: float = 0.5
    seed: int = 0

    def validate(self) -> "RunConfig":
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            types = {"bool": bool, "int": int, "float": (int, float)}[f.type]
            # bool is an int subtype, so only a bool field may hold a bool.
            if isinstance(value, bool) != (f.type == "bool") or not isinstance(value, types):
                raise ValueError(f"config field {f.name} must be {f.type}, not {value!r}")
            # An int field is positive (max_iter and seed may be 0), a float field non-negative.
            if f.type == "int" and f.name not in ("max_iter", "seed") and value <= 0:
                raise ValueError(f"config field {f.name} must be positive")
            if f.type != "bool" and f.name != "lambda_mix" and value < 0:
                raise ValueError(f"config field {f.name} must be non-negative")
        if not 0.0 <= self.lambda_mix <= 1.0:
            raise ValueError("lambda_mix must lie in [0, 1]")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.vocab_cap < 5:
            raise ValueError("vocab_cap must leave room for the reserved ids")
        return self

    @classmethod
    def published_preset(cls) -> "RunConfig":
        """Published configuration: base transformer dims and schedules."""
        return cls(
            d_model=512,
            d_hidden=2048,
            n_heads=8,
            n_layers=6,
            token_dim=420,
            key_dim=80,
            pos_dim=5,
            vocab_cap=50_000,
            beam_width=5,
            lambda_del=1.0,
            pointer_peak_lr=3e-4,
            pointer_warmup=4_000,
            editor_peak_lr=5e-4,
            editor_warmup=10_000,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        # A retired field loads only with the value every config.json written
        # while it existed holds: "dropout": 0.0 and "tie_token_head": false.
        for name, only in (("dropout", 0), ("tie_token_head", False)):
            value = data.pop(name, only)
            if isinstance(value, bool) != isinstance(only, bool) or value != only:
                raise ValueError(
                    f"config field {name} must be {json.dumps(only)}: the field is retired"
                )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data).validate()

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        data = read_json(path)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected a JSON object of config fields")
        try:
            return cls.from_dict(data)
        except (TypeError, ValueError) as err:  # TypeError: a field of the wrong type
            raise ValueError(f"{path}: {err}") from None

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)

    def with_overrides(self, overrides: dict) -> "RunConfig":
        return RunConfig.from_dict({**self.to_dict(), **overrides})


def parse_override(text: str) -> tuple[str, object]:
    """Parse a KEY=VALUE override; the value is read as JSON when possible."""
    if "=" not in text:
        raise ValueError(f"override {text!r} is not KEY=VALUE")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def resolve_config(
    config_path: str | None, overrides: list[str] | None = None, env: dict | None = None
) -> RunConfig:
    """File -> SANA_SEED env -> explicit overrides, later sources winning."""
    cfg = RunConfig.from_file(config_path) if config_path else RunConfig()
    env = os.environ if env is None else env
    if SEED_ENV_VAR in env:
        try:
            cfg = cfg.with_overrides({"seed": int(env[SEED_ENV_VAR])})
        except ValueError as err:
            raise ValueError(f"{SEED_ENV_VAR}={env[SEED_ENV_VAR]!r}: {err}") from None
    merged: dict[str, object] = {}
    for item in overrides or []:
        key, value = parse_override(item)
        merged[key] = value
    if merged:
        cfg = cfg.with_overrides(merged)
    return cfg.validate()
