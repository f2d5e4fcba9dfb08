"""Experiment configuration: flat INI files with sections
[coefficient], [grids], [sweep], [solver], [output].

Example::

    [coefficient]
    family = separable_1d
    x_amplitude = 0.5

    [grids]
    n_x = 64
    n_y = 256
    n_f = 16

    [sweep]
    eps_denominators = 8,16,32,64

    [solver]
    cell_tol = 1e-11
    norm_tol = 1e-6
    norm_maxiter = 800
    seed = 0

    [output]
    out_dir = results

Epsilon values are given as integer denominators (eps = 1/k).  Missing keys
take documented defaults; the grid defaults depend on the family dimension
(1D: n_x=64, n_y=256, n_f=16; 2D: n_x=16, n_y=64, n_f=8).  n_f must
divide n_y, and no fine grid n_f * k may be coarser than n_x; every
ExperimentConfig checks its grids, eps list and solver settings when it is
built, and load_config checks that the denominators are distinct k >= 2.
[coefficient] holds the family's parameters, each a number or a boolean
word (1/true/yes/on, 0/false/no/off, any case); any other value, a
parameter the family does not read, an unknown section, or an unknown
key in any other section, raises ConfigError.
"""

import configparser
from dataclasses import dataclass

from .coefficients import builtin_family
from .errors import ConfigError

_GRID_DEFAULTS = {1: {"n_x": 64, "n_y": 256, "n_f": 16},
                  2: {"n_x": 16, "n_y": 64, "n_f": 8}}
_EPS_DEFAULTS = {1: (8, 16, 32, 64), 2: (8, 16, 32)}


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    params: tuple            # sorted (key, value) pairs
    n_x: int
    n_y: int
    n_f: int
    eps_denominators: tuple  # ascending, so eps descending
    cell_tol: float = 1e-11
    norm_tol: float = 1e-6   # Lanczos stop: Ritz residual <= norm_tol * Ritz value
    norm_maxiter: int = 800  # normal-operator applications allowed per norm
    seed: int = 0
    out_dir: str = "results"
    matched_effective: bool = False

    def __post_init__(self):
        """Reject grids, eps lists and solver settings a sweep cannot run."""
        if self.n_f < 8:
            raise ConfigError(f"n_f must be >= 8, got {self.n_f}")
        if self.n_f % 2:
            raise ConfigError(f"n_f must be even, got {self.n_f}")
        if self.n_y < 8 or self.n_y % 2:
            raise ConfigError(f"n_y must be even and >= 8, got {self.n_y}")
        if self.n_y % self.n_f:
            # the correctors read cell tables on the n_f-point fast sublattice
            raise ConfigError(f"n_f = {self.n_f} must divide n_y = {self.n_y}")
        if self.n_x < 4:
            raise ConfigError(f"n_x must be >= 4, got {self.n_x}")
        if not self.eps_denominators:
            raise ConfigError("eps_denominators is empty")
        for k in self.eps_denominators:
            if self.n_f * k < self.n_x:
                # the homogenized operator resamples the slow grid onto the fine one
                raise ConfigError(f"eps = 1/{k}: the fine grid n_f * k = {self.n_f * k} "
                                  f"is coarser than the slow grid n_x = {self.n_x}")
        if self.cell_tol <= 0 or self.norm_tol <= 0:
            raise ConfigError("tolerances must be positive")
        if self.norm_maxiter < 1:
            raise ConfigError(f"norm_maxiter must be >= 1, got {self.norm_maxiter}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def params_dict(self):
        return dict(self.params)

    def make_field(self):
        return builtin_family(self.family, self.params_dict)

    def normalized_text(self):
        """Canonical INI rendering; load(dump(cfg)) == cfg."""
        lines = ["[coefficient]", f"family = {self.family}"]
        lines += [f"{k} = {v!r}" for k, v in self.params]
        for section, keys in _KEYS.items():
            lines += ["", f"[{section}]"] + [f"{key} = {_render(getattr(self, key))}"
                                            for key in keys]
        return "\n".join(lines + [""])


def _render(value):
    """A config value as its key's cast reads it back."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _boolean(raw):
    word = raw.strip().lower()
    if word not in _BOOLEANS:
        raise ValueError(f"not a boolean word ({'/'.join(_BOOLEANS)})")
    return _BOOLEANS[word]


def _param(raw):
    """A [coefficient] value: a number, else a boolean word."""
    try:
        return float(raw)
    except ValueError:
        if raw.strip().lower() in _BOOLEANS:
            return _boolean(raw)
        raise ValueError(f"not a number or a boolean word ({'/'.join(_BOOLEANS)})") from None


def _eps_denominators(raw):
    """Distinct integer denominators k >= 2, ascending (so eps descending)."""
    ks = tuple(int(tok) for tok in raw.replace(" ", "").split(",") if tok)
    for i, k in enumerate(ks):
        if k < 2:
            raise ValueError(f"every eps must be 1/k with integer k >= 2, got 1/{k}")
        if k in ks[:i]:
            raise ValueError(f"duplicate eps denominator {k}")
    return tuple(sorted(ks))


# every key outside [coefficient] with its cast; ExperimentConfig holds the
# defaults, except the dimension-dependent grids and eps denominators
_KEYS = {"grids": {"n_x": int, "n_y": int, "n_f": int},
         "sweep": {"eps_denominators": _eps_denominators},
         "solver": {"cell_tol": float, "norm_tol": float, "norm_maxiter": int,
                    "seed": int, "matched_effective": _boolean},
         "output": {"out_dir": str}}


def _get(parser, section, key, cast):
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def load_config(path):
    """Parse an experiment configuration file and check its eps denominators;
    the config checks its other values itself."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    for section in parser.sections():
        if section == "coefficient":
            continue
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]; known: [coefficient], "
                              + ", ".join(f"[{name}]" for name in _KEYS))
        for key in parser.options(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}; "
                                  f"known: {', '.join(sorted(_KEYS[section]))}")

    if not parser.has_option("coefficient", "family"):
        raise ConfigError("missing [coefficient] family")
    family = parser.get("coefficient", "family").strip()
    params = {key: _get(parser, "coefficient", key, _param)
              for key in parser.options("coefficient") if key != "family"}

    # instantiating validates the family id and its parameter ranges
    try:
        field = builtin_family(family, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    values = {**_GRID_DEFAULTS[field.dim], "eps_denominators": _EPS_DEFAULTS[field.dim]}
    for section, casts in _KEYS.items():
        for key, cast in casts.items():
            if parser.has_option(section, key):
                values[key] = _get(parser, section, key, cast)
    return ExperimentConfig(family=family, params=tuple(sorted(params.items())), **values)
