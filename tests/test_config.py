from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from microhom import ConfigError, ExperimentConfig, load_config

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted(ROOT.glob("configs/*.cfg")) + sorted(ROOT.glob("perfbench/workloads/*.cfg"))

MINIMAL = """
[coefficient]
family = separable_1d
"""

FULL = """
[coefficient]
family = smooth_2d_nonsymmetric
slow_amplitude = 0.2

[grids]
n_x = 12
n_y = 32
n_f = 8

[sweep]
eps_denominators = 4, 8, 16

[solver]
cell_tol = 1e-10
norm_tol = 1e-5
norm_maxiter = 200
seed = 7

[output]
out_dir = out
"""


def write(tmp_path, text):
    p = tmp_path / "exp.cfg"
    p.write_text(text)
    return p


def test_minimal_config_gets_defaults(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    assert cfg.family == "separable_1d"
    assert cfg.n_x == 64 and cfg.n_y == 256 and cfg.n_f == 16
    assert cfg.eps_denominators == (8, 16, 32, 64)
    # the solver and output keys take the dataclass's own defaults
    defaults = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}
    assert set(defaults) == {"cell_tol", "norm_tol", "norm_maxiter", "seed", "out_dir",
                             "matched_effective"}
    assert {name: getattr(cfg, name) for name in defaults} == defaults


def test_full_config(tmp_path):
    cfg = load_config(write(tmp_path, FULL))
    assert cfg.params_dict["slow_amplitude"] == 0.2
    assert cfg.eps_denominators == (4, 8, 16)
    assert cfg.seed == 7


def test_eps_not_reciprocal_integer_rejected(tmp_path):
    bad = MINIMAL + "\n[sweep]\neps_denominators = 8,0.3\n"
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, bad))
    for eps, msg in (("8,1", "integer k >= 2, got 1/1"), ("8,16,8", "duplicate eps denominator 8")):
        with pytest.raises(ConfigError, match=msg):
            load_config(write(tmp_path, MINIMAL + f"\n[sweep]\neps_denominators = {eps}\n"))


def test_resolution_constraints(tmp_path):
    with pytest.raises(ConfigError, match="n_f"):
        load_config(write(tmp_path, MINIMAL + "\n[grids]\nn_f = 6\n"))
    with pytest.raises(ConfigError, match="n_y"):
        load_config(write(tmp_path, MINIMAL + "\n[grids]\nn_y = 33\n"))


def test_n_f_must_divide_n_y(tmp_path):
    text = FULL.replace("n_y = 32", "n_y = 60")
    with pytest.raises(ConfigError, match="n_f = 8 must divide n_y = 60"):
        load_config(write(tmp_path, text))


def test_fine_grid_coarser_than_slow_grid_rejected(tmp_path):
    # n_f * k = 32 < n_x = 64 at k = 4: caught when the config is built,
    # not when eps = 1/4 resamples the slow grid onto its fine one
    with pytest.raises(ConfigError, match=r"eps = 1/4: .* n_f \* k = 32 .* n_x = 64"):
        load_config(write(tmp_path, MINIMAL + "\n[grids]\nn_f = 8\nn_y = 256\n"
                          "\n[sweep]\neps_denominators = 4, 8, 16\n"))
    cfg = dict(family="smooth_2d_nonsymmetric", params=(), n_x=64, n_y=64, n_f=8)
    with pytest.raises(ConfigError, match=r"eps = 1/4: .* 32 .* n_x = 64"):
        ExperimentConfig(**cfg, eps_denominators=(4, 8, 16))
    # n_f * k = n_x is the smallest fine grid allowed
    assert ExperimentConfig(**cfg, eps_denominators=(8, 16)).eps_denominators == (8, 16)


def test_norm_maxiter_must_be_positive(tmp_path):
    text = FULL.replace("norm_maxiter = 200", "norm_maxiter = 0")
    with pytest.raises(ConfigError, match="norm_maxiter must be >= 1, got 0"):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("text,msg", [
    (MINIMAL + "x_amplitude = 0.5x\n", r"\[coefficient\] x_amplitude = '0.5x'"),
    (FULL.replace("seed = 7", "seed = 7\nmatched_effective = ture"),
     r"\[solver\] matched_effective = 'ture'"),
    (MINIMAL + "x_amplitud = 0.3\n", r"'separable_1d' does not read \['x_amplitud'\]"),
    (FULL.replace("seed = 7", "seed = -1"), "seed must be >= 0, got -1"),
], ids=["x_amplitude", "matched_effective", "misspelt_parameter", "seed"])
def test_malformed_value_rejected(tmp_path, text, msg):
    # values that are neither numbers nor boolean words once loaded as
    # False, a misspelt family parameter once ran on its default, and a
    # negative seed once failed in numpy after the sweep's setup stages
    with pytest.raises(ConfigError, match=msg):
        load_config(write(tmp_path, text))


def test_unknown_key_rejected(tmp_path):
    text = FULL.replace("seed = 7", "seed = 7\ngauss_points = 4")
    with pytest.raises(ConfigError, match=r"\[solver\] unknown key 'gauss_points'"):
        load_config(write(tmp_path, text))


def test_unknown_section_rejected(tmp_path):
    text = FULL.replace("[solver]", "[solvers]")
    with pytest.raises(ConfigError, match=r"unknown section \[solvers\]"):
        load_config(write(tmp_path, text))


def test_unknown_family_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown"):
        load_config(write(tmp_path, "[coefficient]\nfamily = zebra\n"))


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg")


def test_roundtrip_is_idempotent(tmp_path):
    cfg = load_config(write(tmp_path, FULL))
    text = cfg.normalized_text()
    p = tmp_path / "normalized.cfg"
    p.write_text(text)
    cfg2 = load_config(p)
    assert cfg2 == cfg
    assert cfg2.normalized_text() == text


def test_eps_sorted_descending(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL + "\n[sweep]\neps_denominators = 64,8,32,16\n"))
    # ascending denominators: eps = 1/k descending
    assert cfg.eps_denominators == (8, 16, 32, 64)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: str(p.relative_to(ROOT)))
def test_shipped_configs_load_and_roundtrip(path, tmp_path):
    cfg = load_config(path)
    assert load_config(write(tmp_path, cfg.normalized_text())) == cfg


def test_empty_eps_denominators_rejected(tmp_path):
    # an empty value is an error like every other empty key, not the defaults
    with pytest.raises(ConfigError, match="eps_denominators is empty"):
        load_config(write(tmp_path, MINIMAL + "\n[sweep]\neps_denominators =\n"))
    # a config built in code is checked as well: an empty list would
    # otherwise fail deep inside the sweep
    with pytest.raises(ConfigError, match="eps_denominators is empty"):
        ExperimentConfig(family="separable_1d", params=(), n_x=64, n_y=256, n_f=16,
                         eps_denominators=())
