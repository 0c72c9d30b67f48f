"""Run configuration: molecule parameters, presets, unit conversions.

All dynamics depend only on the two dimensionless numbers t/T_rot and
B/(k_B T); physical constants live here so results stay transferable and
units never leak into the numerical core.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from functools import cache
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .basis import ALIGNMENT, ORIENTATION, PROCESS_KINDS
from .errors import ConfigError

# The interpreter's builtin SHA-256 gives hashlib's digest without loading OpenSSL, as random.py does for sha512.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

KB_CM_PER_K = 0.6950348  # Boltzmann constant in wavenumbers per kelvin (overridable per config)
C_CM_PER_PS = 0.0299792458  # speed of light, cm per picosecond

# Open range of <cos theta> and <cos^2 theta> over all states.
_THRESHOLD_RANGE = {ORIENTATION: (-1.0, 1.0), ALIGNMENT: (0.0, 1.0)}


def b_rad_per_ps(b_cm: float) -> float:
    """Rotational constant as an angular frequency (hbar = 1)."""
    return 2.0 * np.pi * C_CM_PER_PS * b_cm


def beta_from(b_cm: float, temperature_k: float, kb_cm_per_k: float = KB_CM_PER_K) -> float:
    """Dimensionless B/(k_B T)."""
    if b_cm <= 0 or temperature_k <= 0 or kb_cm_per_k <= 0:
        raise ConfigError(
            f"B, T and k_B must be positive (got B={b_cm}, T={temperature_k}, kB={kb_cm_per_k})"
        )
    return b_cm / (kb_cm_per_k * temperature_k)


@dataclass(frozen=True)
class MoleculeParams:
    """Rotational constant and thermal/pulse parameters of the driven molecule.

    Dipole, polarizability and pulse duration are display-only: they convert
    the dimensionless kick areas to physical field parameters but never enter
    the propagation.
    """

    b_cm: float
    temperature_k: float
    dipole_debye: float | None = None
    polarizability_anisotropy_a3: float | None = None
    polarizability_perp_a3: float | None = None
    pulse_duration_ps: float | None = None

    def __post_init__(self) -> None:
        _check_types(self)
        if self.b_cm <= 0:
            raise ConfigError(f"rotational constant must be positive, got {self.b_cm}")
        if self.temperature_k <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature_k}")
        if self.pulse_duration_ps is not None and self.pulse_duration_ps <= 0:
            raise ConfigError(f"pulse duration must be positive, got {self.pulse_duration_ps}")

    @property
    def epsilon(self) -> float | None:
        """Dimensionless pulse duration tau * B, when tau is known."""
        if self.pulse_duration_ps is None:
            return None
        return self.pulse_duration_ps * b_rad_per_ps(self.b_cm)

    def beta(self, kb_cm_per_k: float = KB_CM_PER_K) -> float:
        return beta_from(self.b_cm, self.temperature_k, kb_cm_per_k)


# LiCl reference molecule: B at the equilibrium bond length; pulse duration
# chosen so that tau * B = 0.01.
_LICL_B_CM = 0.70652
_LICL_TAU_PS = 0.01 / b_rad_per_ps(_LICL_B_CM)


def _conforms(value, hint) -> bool:
    """Whether value has the annotated type: an int is a float and a list a tuple, a bool neither int nor float."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if not isinstance(value, (tuple, list)):
            return False
        if args[-1] is Ellipsis:
            return all(_conforms(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_conforms, value, args))
    if args:  # a union such as float | None
        return any(_conforms(value, arm) for arm in args)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


_type_hints = cache(get_type_hints)  # evaluating the annotations takes about 0.3 ms per class


def _finite(value) -> bool:
    """False for a float that is NaN or infinite, also inside a tuple or a list; JSON's NaN and Infinity are floats."""
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _check_types(config) -> None:
    """ConfigError naming the first field of a config dataclass whose value lacks the declared type or is not finite."""
    hints = _type_hints(type(config))
    for f in fields(config):
        value = getattr(config, f.name)
        if not _conforms(value, hints[f.name]):
            raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        if not _finite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Complete, hashable description of one CLI run."""

    molecule: MoleculeParams
    process: str = "orientation"
    j_max: int = 8
    j_sim: int = 16
    kick_amplitude: float = 2.0
    strategy: str = "S1"
    max_kicks: int = 15
    gain_tol: float = 1e-4
    z_mode: str = "full"
    renormalize: bool = False
    out_dir: str = "out"
    kb_cm_per_k: float = KB_CM_PER_K
    j_max_range: tuple[int, int] = (1, 12)
    temperatures_k: tuple[float, ...] = (5.0, 10.0)
    threshold: float = 0.5

    def __post_init__(self) -> None:
        _check_types(self)
        if self.process not in PROCESS_KINDS:
            raise ConfigError(f"process must be one of {PROCESS_KINDS}, got {self.process!r}")
        if self.strategy not in ("S1", "S2"):
            raise ConfigError(f"strategy must be S1 or S2, got {self.strategy!r}")
        if self.z_mode not in ("full", "truncated"):
            raise ConfigError(f"z_mode must be full or truncated, got {self.z_mode!r}")
        if self.j_max < 0:
            raise ConfigError(f"j_max must be non-negative, got {self.j_max}")
        if self.j_sim < self.j_max:
            raise ConfigError(f"j_sim ({self.j_sim}) must be at least j_max ({self.j_max})")
        if self.max_kicks < 0:
            raise ConfigError(f"max_kicks must be non-negative, got {self.max_kicks}")
        if self.gain_tol <= 0:
            raise ConfigError(f"gain_tol must be positive, got {self.gain_tol}")
        if self.kb_cm_per_k <= 0:
            raise ConfigError(f"kb_cm_per_k must be positive, got {self.kb_cm_per_k}")
        if not self.temperatures_k:
            raise ConfigError("temperatures_k must list at least one temperature")
        if any(t <= 0 for t in self.temperatures_k):
            raise ConfigError(f"temperatures must be positive, got {self.temperatures_k!r}")
        object.__setattr__(self, "j_max_range", tuple(self.j_max_range))
        object.__setattr__(self, "temperatures_k", tuple(float(t) for t in self.temperatures_k))
        names = [f"{t:g}" for t in self.temperatures_k]  # bounds names one file per temperature T{t:g}K
        for k, name in enumerate(names):
            if name in names[:k]:
                pair = f"{self.temperatures_k[names.index(name)]!r} and {self.temperatures_k[k]!r} share a file"
                raise ConfigError(f"temperature {name} K is listed more than once in temperatures_k ({pair})")
        lo, hi = self.j_max_range
        if not 1 <= lo <= hi:
            raise ConfigError(f"j_max_range must satisfy 1 <= lo <= hi, got [{lo}, {hi}]")
        low, high = _THRESHOLD_RANGE[self.process]
        if not low < self.threshold < high:
            raise ConfigError(
                f"threshold must lie in the {self.process} range ({low:g}, {high:g}), got {self.threshold}"
            )

    @property
    def beta(self) -> float:
        return self.molecule.beta(self.kb_cm_per_k)

    def sweep_j_values(self) -> range:
        lo, hi = self.j_max_range
        return range(lo, hi + 1)

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["j_max_range"] = list(self.j_max_range)
        payload["temperatures_k"] = list(self.temperatures_k)
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        data = dict(payload)
        try:
            molecule = MoleculeParams(**data.pop("molecule", {}))
        except (TypeError, ConfigError) as exc:
            raise ConfigError(f"molecule: {exc}") from exc
        try:
            return cls(molecule=molecule, **data)
        except TypeError as exc:
            raise ConfigError(f"malformed config: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(payload)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode()).hexdigest()[:16]

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)


def _licl(temperature_k: float, **kwargs) -> RunConfig:
    molecule = MoleculeParams(
        b_cm=_LICL_B_CM,
        temperature_k=temperature_k,
        pulse_duration_ps=_LICL_TAU_PS,
    )
    return RunConfig(molecule=molecule, **kwargs)


PRESETS: dict[str, RunConfig] = {
    "licl-5K": _licl(5.0),
    "licl-10K": _licl(10.0),
    "licl-5K-s2": _licl(5.0, strategy="S2", max_kicks=9),
    "licl-5K-alignment": _licl(5.0, process="alignment"),
    "licl-5K-alignment-s2": _licl(5.0, process="alignment", strategy="S2", max_kicks=9),
}


def load_config(path: str | None = None, preset: str | None = None) -> RunConfig:
    if (path is None) == (preset is None):
        raise ConfigError("exactly one of a config file or a preset name is required")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        return PRESETS[preset]
    try:
        with open(path, encoding="utf-8") as fh:
            return RunConfig.from_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
