"""AdamW with decoupled weight decay, plus the two LR schedules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 1e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigError("betas must be in [0, 1)")
        if self.weight_decay < 0 or self.eps <= 0:
            raise ConfigError("weight_decay must be >= 0 and eps > 0")


@dataclass(frozen=True)
class SchedulerConfig:
    kind: str = "linear"  # linear | constant
    warmup_fraction: float = 0.05

    def __post_init__(self):
        if self.kind not in ("linear", "constant"):
            raise ConfigError(f"unknown scheduler kind {self.kind!r}")
        if not 0 <= self.warmup_fraction < 1:
            raise ConfigError("warmup_fraction must be in [0, 1)")


def lr_at(sched: SchedulerConfig, base_lr: float, step: int,
          total_steps: int) -> float:
    """Pointwise learning rate at `step` out of `total_steps`.

    Linear: ramps as base_lr * s / warmup_steps during warmup, then decays
    linearly, hitting exactly 0 at s == total_steps.
    """
    if sched.kind == "constant":
        return base_lr
    warmup_steps = int(sched.warmup_fraction * total_steps)
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    if total_steps <= warmup_steps:
        return base_lr
    return base_lr * max(0.0, (total_steps - step) / (total_steps - warmup_steps))


class AdamW:
    """Decoupled weight decay: the decay term bypasses the moment estimates.

    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta)
    """

    def __init__(self, entries: dict[str, np.ndarray], cfg: OptimizerConfig):
        self.cfg = cfg
        self.entries = entries
        self.m = {k: np.zeros_like(v) for k, v in entries.items()}
        self.v = {k: np.zeros_like(v) for k, v in entries.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray], lr: float):
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        for k, g in grads.items():
            m = self.m[k]
            v = self.v[k]
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * (g * g)
            theta = self.entries[k]
            theta -= lr * ((m / bc1) / (np.sqrt(v / bc2) + c.eps)
                           + c.weight_decay * theta)
