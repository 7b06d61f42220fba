"""Declarative experiment configuration.

Flat key-value text with one section per concern. Unknown sections or keys
are hard errors so a typo cannot silently change a reproduction run, and
serialisation is canonical so parse -> serialize -> parse is the identity.
"""
from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, fields as dc_fields

__all__ = ["ExperimentConfig", "parse_config", "serialize_config"]

_BOOL = {"true": True, "false": False}


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
    quad_points: int = 0  # 0 -> p + 1
    # [solver]
    mass_tol: float = 1e-12
    pcg_max_iter: int = 0  # 0 -> automatic
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
        if self.kind == "spinodal":
            if self.bulk_level >= self.interface_level:
                raise ValueError("bulk_level must be below interface_level")
            _check_band(self.band_lo, self.band_hi, self.band_closed)
        if self.adapt_every < 1:
            raise ValueError("adapt_every must be >= 1")
        for name in ("dt", "t_final", "mass_tol", "newton_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.quad_points != 0 and self.quad_points < self.degree + 1:
            raise ValueError(
                f"quad_points must be 0 (for p + 1) or >= degree + 1 = {self.degree + 1}, "
                f"got {self.quad_points}"
            )
        for name, low in (("pcg_max_iter", 0), ("newton_max_iter", 1), ("snapshot_every", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        return self


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
    "transfer": ("mode", "quad_points"),
    "solver": ("mass_tol", "pcg_max_iter", "newton_tol", "newton_max_iter"),
    "output": ("directory", "snapshot_every"),
}

_FIELD_TYPES = {f.name: f.type for f in dc_fields(ExperimentConfig)}


def _convert(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    if kind == "bool":
        try:
            return _BOOL[raw.strip().lower()]
        except KeyError:
            raise ValueError(f"invalid boolean for {name}: {raw!r}") from None
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw.strip()


def parse_config(text_or_path) -> ExperimentConfig:
    """Parse a config file (path or raw text). Unknown keys are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    text = text_or_path
    if "\n" not in str(text_or_path) and "=" not in str(text_or_path):
        with open(text_or_path) as fh:
            text = fh.read()
    parser.read_string(str(text))
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
