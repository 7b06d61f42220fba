"""Declarative experiment configuration.

Flat key-value text with one section per concern. Unknown sections or keys
are hard errors so a typo cannot silently change a reproduction run, and
serialisation is canonical so parse -> serialize -> parse is the identity.
"""
from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass, fields as dc_fields

__all__ = ["ExperimentConfig", "parse_config", "serialize_config"]

_BOOL = {"true": True, "false": False}
MAX_LEVEL = 20  # deepest quadtree level: anchors are integers at 2^-MAX_LEVEL


@dataclass
class ExperimentConfig:
    # [experiment]
    kind: str = "demo1d"  # demo1d | mms | spinodal
    degree: int = 1
    seed: int = 0
    # [mesh]
    level: int = 5  # fine level for mms / demo1d
    bulk_level: int = 3
    interface_level: int = 6
    # [time]
    dt: float = 0.01
    t_final: float = 1.0
    theta: float = 0.5
    # [adapt]
    tau: float = 1e-2
    fraction: float = 0.10
    band_lo: float = -0.9
    band_hi: float = 0.9
    band_closed: bool = True
    adapt_every: int = 1
    # [physics]
    kappa: float = 0.03
    eps2: float = 1e-3
    mobility: float = 1.0
    free_energy: str = "polynomial"  # polynomial | flory_huggins
    fh_a: float = 1.0
    fh_chi: float = 3.0
    fh_beta: float = 0.01
    phi0: float = 0.0
    amplitude: float = 0.1
    mms_amplitude: float = 0.1
    # [transfer]
    mode: str = "conservative"  # conservative | injection | both
    # [solver]
    mass_tol: float = 1e-12
    newton_tol: float = 1e-10
    newton_max_iter: int = 30
    # [output]
    directory: str = "out"
    snapshot_every: int = 0  # 0 -> no VTK snapshots

    def validate(self):
        if self.kind not in ("demo1d", "mms", "spinodal"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.degree not in (1, 2):
            raise ValueError("degree must be 1 or 2")
        if self.mode not in ("conservative", "injection", "both"):
            raise ValueError(f"unknown transfer mode {self.mode!r}")
        if self.free_energy not in ("polynomial", "flory_huggins"):
            raise ValueError(f"unknown free energy {self.free_energy!r}")
        levels = {"mms": ("level",), "spinodal": ("bulk_level", "interface_level")}
        for name in levels.get(self.kind, ()):
            if not 0 <= getattr(self, name) <= MAX_LEVEL:
                raise ValueError(f"{name} must lie in [0, {MAX_LEVEL}], got {getattr(self, name)}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.kind == "mms":
            _check_positive(tau=self.tau, kappa=self.kappa)
            _check_unit(fraction=self.fraction, theta=self.theta)
        if self.kind == "spinodal":
            if self.bulk_level >= self.interface_level:
                raise ValueError("bulk_level must be below interface_level")
            _check_band(self.band_lo, self.band_hi, self.band_closed)
            _check_positive(eps2=self.eps2, mobility=self.mobility)
        if self.adapt_every < 1:
            raise ValueError("adapt_every must be >= 1")
        _check_positive(
            dt=self.dt, t_final=self.t_final, mass_tol=self.mass_tol, newton_tol=self.newton_tol
        )
        for name, low in (("newton_max_iter", 1), ("snapshot_every", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        return self


def _check_positive(**values: float) -> None:
    """Reject any value that is not above 0 (a NaN included)."""
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value!r}")


def _check_unit(**values: float) -> None:
    """Reject any value outside [0, 1] (a NaN included)."""
    for name, value in values.items():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def _check_band(lo: float, hi: float, closed: bool) -> None:
    """Reject an interface band that no value can lie in (a NaN bound included)."""
    if not lo <= hi or (lo == hi and not closed):
        need = "at most" if closed else "below"
        band = f"[{lo!r}, {hi!r}]" if closed else f"({lo!r}, {hi!r})"
        raise ValueError(
            f"band_lo ({lo!r}) must be {need} band_hi ({hi!r}): the band {band} holds no value"
        )


_SECTIONS: dict[str, tuple[str, ...]] = {
    "experiment": ("kind", "degree", "seed"),
    "mesh": ("level", "bulk_level", "interface_level"),
    "time": ("dt", "t_final", "theta"),
    "adapt": ("tau", "fraction", "band_lo", "band_hi", "band_closed", "adapt_every"),
    "physics": (
        "kappa",
        "eps2",
        "mobility",
        "free_energy",
        "fh_a",
        "fh_chi",
        "fh_beta",
        "phi0",
        "amplitude",
        "mms_amplitude",
    ),
    "transfer": ("mode",),
    "solver": ("mass_tol", "newton_tol", "newton_max_iter"),
    "output": ("directory", "snapshot_every"),
}

_FIELD_TYPES = {f.name: f.type for f in dc_fields(ExperimentConfig)}


def _convert(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    try:
        if kind == "bool":
            return _BOOL[raw.strip().lower()]
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except (KeyError, ValueError):
        raise ValueError(f"invalid {kind} for {name}: {raw!r}") from None
    return raw.strip()


def parse_config(text_or_path) -> ExperimentConfig:
    """Parse a config file (path or raw text). Unknown keys are errors.

    An existing file is read whatever its name; a one-line string without
    ``=`` is a path too, so a missing file raises ``FileNotFoundError``.
    Every other defect of the text raises ``ValueError``.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    text = str(text_or_path)
    if os.path.isfile(text) or ("\n" not in text and "=" not in text):
        with open(text) as fh:
            text = fh.read()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from None
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}]")
        allowed = _SECTIONS[section]
        for key, raw in parser.items(section):
            if key not in allowed:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            setattr(cfg, key, _convert(key, raw))
    return cfg.validate()


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: fixed section and key order."""
    out = io.StringIO()
    for section, keys in _SECTIONS.items():
        out.write(f"[{section}]\n")
        for key in keys:
            out.write(f"{key} = {_format(getattr(cfg, key))}\n")
        out.write("\n")
    return out.getvalue()
