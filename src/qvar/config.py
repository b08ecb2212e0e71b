"""Run settings: ExperimentConfig, TrainConfig and the names the CLI parser
shows. This module imports no numpy, so `qvar --help` and a config error
never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DomainError

METHOD_CONSTANT = "constant"
METHOD_GARCH = "garch"
METHOD_LINEAR_QR = "linear_qr"
METHOD_QCNN = "qcnn"
METHOD_JOINT_QCNN = "joint_qcnn"
ALL_METHODS = (METHOD_CONSTANT, METHOD_GARCH, METHOD_LINEAR_QR, METHOD_QCNN, METHOD_JOINT_QCNN)

DEFAULT_THETAS = (0.05, 0.01, 0.001)
DEFAULT_WINDOW = 128
DEFAULT_HIT_LAGS = 3

# synthetic processes
IID_NORMAL = "iid_normal"
GARCH11 = "garch11"


def check_quantile_level(theta: float) -> None:
    if not 0.0 < theta < 1.0:
        raise DomainError(f"quantile level {theta} must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 128
    batch_size: int = 128
    seed: int = 0
    rho: float = 0.95
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise DomainError("epochs and batch_size must be >= 1")
        if not 0.0 < self.rho < 1.0:
            raise DomainError("rho must lie strictly inside (0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise DomainError(f"epsilon must be positive and finite, got {self.epsilon}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a full run needs; flags and config files both map onto this."""

    manifest: Path
    output_dir: Path
    thetas: tuple[float, ...] = DEFAULT_THETAS
    methods: tuple[str, ...] = ALL_METHODS
    train: TrainConfig = field(default_factory=TrainConfig)
    window: int = DEFAULT_WINDOW
    stride: int = 1
    seed: int = 0
    sample_size: int | None = None
    workers: int | None = None
    write_series: bool = False

    def __post_init__(self):
        for name in ("methods", "thetas"):
            values = getattr(self, name)
            if not values:
                raise DomainError(f"{name} list must not be empty")
            if len(set(values)) != len(values):
                raise DomainError(f"{name} list repeats a value: {values}")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise DomainError(f"unknown method {m!r}; choose from {ALL_METHODS}")
        for t in self.thetas:
            check_quantile_level(t)
        for name in ("window", "stride", "sample_size", "workers"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise DomainError(f"{name} must be >= 1, got {value}")
        # derive_seed keys its hash with the seed's 8 unsigned bytes
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must lie in [0, 2**64), got {self.seed}")
