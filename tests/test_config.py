from pathlib import Path

import pytest

from microhom import ConfigError, load_config

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
    assert cfg.eps_list[0] == 0.125


def test_full_config(tmp_path):
    cfg = load_config(write(tmp_path, FULL))
    assert cfg.params_dict["slow_amplitude"] == 0.2
    assert cfg.eps_denominators == (4, 8, 16)
    assert cfg.seed == 7


def test_eps_not_reciprocal_integer_rejected(tmp_path):
    bad = MINIMAL + "\n[sweep]\neps_denominators = 8,0.3\n"
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, bad))


def test_resolution_constraints(tmp_path):
    with pytest.raises(ConfigError, match="n_f"):
        load_config(write(tmp_path, MINIMAL + "\n[grids]\nn_f = 6\n"))
    with pytest.raises(ConfigError, match="n_y"):
        load_config(write(tmp_path, MINIMAL + "\n[grids]\nn_y = 33\n"))


def test_n_f_must_divide_n_y(tmp_path):
    text = FULL.replace("n_y = 32", "n_y = 60")
    with pytest.raises(ConfigError, match="n_f = 8 must divide n_y = 60"):
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
    assert cfg.eps_denominators == (8, 16, 32, 64)
    assert list(cfg.eps_list) == sorted(cfg.eps_list, reverse=True)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: str(p.relative_to(ROOT)))
def test_shipped_configs_load_and_roundtrip(path, tmp_path):
    cfg = load_config(path)
    assert load_config(write(tmp_path, cfg.normalized_text())) == cfg
