"""Application registry: the paper's eight benchmarks by name.

Two size presets per application:

- ``default`` — scaled down so the full experiment suite runs in
  minutes under CPython (the simulator executes every page fault, diff
  and message);
- ``paper`` — the original parameters from Section 2.3.  One run takes
  tens of seconds: WATER-SP, 8 nodes, ``O``, 14 s on one x86_64 core
  (Python 3.11).
"""

from __future__ import annotations

from typing import Callable

from repro.apps.base import AppBase
from repro.apps.fft import Fft
from repro.apps.lu import LuContiguous, LuNonContiguous
from repro.apps.ocean import Ocean
from repro.apps.radix import Radix
from repro.apps.sor import Sor
from repro.apps.water import WaterNsquared, WaterSpatial
from repro.errors import ConfigError

__all__ = ["APP_ORDER", "make_app", "available_apps"]

#: The paper's presentation order (Figures 1-5).
APP_ORDER = [
    "FFT",
    "LU-NCONT",
    "LU-CONT",
    "OCEAN",
    "RADIX",
    "SOR",
    "WATER-NSQ",
    "WATER-SP",
]

_FACTORIES: dict[str, dict[str, Callable[[], AppBase]]] = {
    "FFT": {
        "default": lambda: Fft(m=96),
        "small": lambda: Fft(m=32),
        "paper": lambda: Fft(m=512),  # 256K points
    },
    "LU-CONT": {
        "default": lambda: LuContiguous(n=256, block_size=32),
        "small": lambda: LuContiguous(n=64, block_size=16),
        "paper": lambda: LuContiguous(n=1024, block_size=32),
    },
    "LU-NCONT": {
        "default": lambda: LuNonContiguous(n=192, block_size=32),
        "small": lambda: LuNonContiguous(n=64, block_size=16),
        "paper": lambda: LuNonContiguous(n=1024, block_size=128),
    },
    "OCEAN": {
        "default": lambda: Ocean(rows=66, cols=512, timesteps=3),
        "small": lambda: Ocean(rows=18, cols=128, timesteps=2),
        "paper": lambda: Ocean(rows=258, cols=512, timesteps=10),
    },
    "RADIX": {
        "default": lambda: Radix(num_keys=16384, max_key=1 << 21, digit_bits=7),
        "small": lambda: Radix(num_keys=2048, max_key=1 << 12, digit_bits=6),
        "paper": lambda: Radix(num_keys=1 << 20, max_key=1 << 21, digit_bits=7),
    },
    "SOR": {
        "default": lambda: Sor(rows=192, cols=512, iterations=6),
        "small": lambda: Sor(rows=32, cols=512, iterations=2),
        "paper": lambda: Sor(rows=2000, cols=512, iterations=50),
    },
    "WATER-NSQ": {
        "default": lambda: WaterNsquared(num_molecules=192, steps=2),
        "small": lambda: WaterNsquared(num_molecules=48, steps=1),
        "paper": lambda: WaterNsquared(num_molecules=512, steps=9),
    },
    "WATER-SP": {
        "default": lambda: WaterSpatial(num_molecules=512, steps=2, cells_per_dim=4),
        "small": lambda: WaterSpatial(num_molecules=64, steps=1, cells_per_dim=3),
        "paper": lambda: WaterSpatial(num_molecules=4096, steps=9, cells_per_dim=6),
    },
}


def available_apps() -> list[str]:
    return list(APP_ORDER)


def make_app(name: str, preset: str = "default") -> AppBase:
    """Instantiate a benchmark by name with a size preset."""
    if name not in _FACTORIES:
        raise ConfigError(f"unknown application {name!r}; choose from {APP_ORDER}")
    presets = _FACTORIES[name]
    if preset not in presets:
        raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(presets)}")
    return presets[preset]()
