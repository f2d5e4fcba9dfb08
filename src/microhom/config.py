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
divide n_y.  [coefficient] holds the family's parameters; an unknown
section, or an unknown key in any other section, raises ConfigError.
"""

import configparser
from dataclasses import dataclass

from .coefficients import builtin_family
from .errors import ConfigError

_GRID_DEFAULTS = {1: {"n_x": 64, "n_y": 256, "n_f": 16},
                  2: {"n_x": 16, "n_y": 64, "n_f": 8}}
_EPS_DEFAULTS = {1: (8, 16, 32, 64), 2: (8, 16, 32)}
_KEYS = {"grids": {"n_x", "n_y", "n_f"},
         "sweep": {"eps_denominators"},
         "solver": {"cell_tol", "norm_tol", "norm_maxiter", "seed", "matched_effective"},
         "output": {"out_dir"}}


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    params: tuple            # sorted (key, value) pairs
    n_x: int
    n_y: int
    n_f: int
    eps_denominators: tuple  # ascending, so eps descending
    cell_tol: float = 1e-11
    norm_tol: float = 1e-6
    norm_maxiter: int = 800
    seed: int = 0
    out_dir: str = "results"
    matched_effective: bool = False

    @property
    def params_dict(self):
        return dict(self.params)

    @property
    def eps_list(self):
        return tuple(1.0 / k for k in self.eps_denominators)

    def make_field(self):
        return builtin_family(self.family, self.params_dict)

    def normalized_text(self):
        """Canonical INI rendering; load(dump(cfg)) == cfg."""
        lines = ["[coefficient]", f"family = {self.family}"]
        lines += [f"{k} = {v!r}" for k, v in self.params]
        lines += ["", "[grids]",
                  f"n_x = {self.n_x}", f"n_y = {self.n_y}", f"n_f = {self.n_f}",
                  "", "[sweep]",
                  "eps_denominators = " + ",".join(str(k) for k in self.eps_denominators),
                  "", "[solver]",
                  f"cell_tol = {self.cell_tol!r}",
                  f"norm_tol = {self.norm_tol!r}",
                  f"norm_maxiter = {self.norm_maxiter}",
                  f"seed = {self.seed}",
                  f"matched_effective = {str(self.matched_effective).lower()}",
                  "", "[output]", f"out_dir = {self.out_dir}", ""]
        return "\n".join(lines)


def _get(parser, section, key, default=None, cast=str):
    if parser.has_option(section, key):
        raw = parser.get(section, key)
        try:
            if cast is bool:
                return raw.strip().lower() in ("1", "true", "yes", "on")
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return default


def _validate(cfg):
    if cfg.n_f < 8:
        raise ConfigError(f"n_f must be >= 8, got {cfg.n_f}")
    if cfg.n_f % 2:
        raise ConfigError(f"n_f must be even, got {cfg.n_f}")
    if cfg.n_y < 8 or cfg.n_y % 2:
        raise ConfigError(f"n_y must be even and >= 8, got {cfg.n_y}")
    if cfg.n_y % cfg.n_f:
        # the correctors read cell tables on the n_f-point fast sublattice
        raise ConfigError(f"n_f = {cfg.n_f} must divide n_y = {cfg.n_y}")
    if cfg.n_x < 4:
        raise ConfigError(f"n_x must be >= 4, got {cfg.n_x}")
    seen = set()
    for k in cfg.eps_denominators:
        if k != int(k) or int(k) < 2:
            raise ConfigError(f"every eps must be 1/k with integer k >= 2, got 1/{k}")
        if k in seen:
            raise ConfigError(f"duplicate eps denominator {k}")
        seen.add(k)
    if cfg.cell_tol <= 0 or cfg.norm_tol <= 0:
        raise ConfigError("tolerances must be positive")


def load_config(path):
    """Parse and validate an experiment configuration file."""
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
    params = {}
    for key in parser.options("coefficient"):
        if key == "family":
            continue
        raw = parser.get("coefficient", key)
        try:
            params[key] = float(raw)
        except ValueError:
            params[key] = raw.strip().lower() in ("1", "true", "yes", "on")

    # instantiating validates the family id and its parameter ranges
    try:
        field = builtin_family(family, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    dim = field.dim
    gd = _GRID_DEFAULTS[dim]

    def parse_eps(raw):
        try:
            ks = tuple(int(tok) for tok in raw.replace(" ", "").split(",") if tok)
        except ValueError as exc:
            raise ConfigError(f"eps_denominators: {exc}") from exc
        if not ks:
            raise ConfigError("eps_denominators is empty")
        return tuple(sorted(ks))

    raw_eps = _get(parser, "sweep", "eps_denominators", None)
    eps_denoms = parse_eps(raw_eps) if raw_eps else _EPS_DEFAULTS[dim]

    cfg = ExperimentConfig(
        family=family,
        params=tuple(sorted(params.items())),
        n_x=_get(parser, "grids", "n_x", gd["n_x"], int),
        n_y=_get(parser, "grids", "n_y", gd["n_y"], int),
        n_f=_get(parser, "grids", "n_f", gd["n_f"], int),
        eps_denominators=eps_denoms,
        cell_tol=_get(parser, "solver", "cell_tol", 1e-11, float),
        norm_tol=_get(parser, "solver", "norm_tol", 1e-6, float),
        norm_maxiter=_get(parser, "solver", "norm_maxiter", 800, int),
        seed=_get(parser, "solver", "seed", 0, int),
        out_dir=_get(parser, "output", "out_dir", "results"),
        matched_effective=_get(parser, "solver", "matched_effective", False, bool),
    )
    _validate(cfg)
    return cfg
