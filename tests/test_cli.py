import hashlib
import json
import os

import numpy as np
import pytest

from spinprobe.cli import ConfigError, main, parse_config


def write_config(tmp_path, name="config.json", **data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_parse_minimal_config_resolves_m(tmp_path):
    path = write_config(tmp_path, J=0.5, alpha=4.0, kappa=0.25, T=1.0, dt=1e-3, scheme="polarimetry")
    cfg = parse_config(path)
    assert cfg.to_params().M == pytest.approx(1.0, abs=1e-14)


def test_parse_m_alpha_derives_kappa(tmp_path):
    path = write_config(tmp_path, J=0.5, M=1.0, alpha=8.0, T=1.0, dt=1e-3)
    cfg = parse_config(path)
    assert cfg.to_params().kappa == pytest.approx(0.125, abs=1e-14)


@pytest.mark.parametrize(
    "run, rejected",
    [
        (dict(scheme="polarimetry"), True),
        (dict(process="homodyne"), False),   # the bound is the counting scheme's only
        (dict(process="minus", scheme="homodyne"), True),   # the process decides the scheme
    ],
    ids=["polarimetry", "homodyne-process", "minus-process"],
)
def test_parse_rejects_jump_bound(tmp_path, run, rejected):
    path = write_config(tmp_path, J=0.5, alpha=10.0, kappa=0.1, T=1.0, dt=5e-3, **run)
    if rejected:
        with pytest.raises(ConfigError, match="one-jump bound"):
            parse_config(path)
    else:
        parse_config(path)


def test_parse_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, J=0.5, alpha=1.0, kappa=0.1, decoherence=0.3)
    with pytest.raises(ConfigError, match="unknown config keys: decoherence"):
        parse_config(path)


def test_parse_rejects_m_conflict(tmp_path):
    path = write_config(tmp_path, J=0.5, alpha=4.0, kappa=0.25, M=2.0)
    with pytest.raises(ConfigError, match="inconsistent"):
        parse_config(path)


def test_parse_fraction_spin_and_flag_override(tmp_path):
    path = write_config(tmp_path, J="3/2", alpha=2.0, kappa=0.1)
    cfg = parse_config(path, {"alpha": 3.0})
    assert cfg.J == 1.5
    assert cfg.alpha == 3.0


def test_parse_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, "a.json", J=0.5, alpha=1.0, kappa=0.1, scheme="counting"))
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, "b.json", J=0.5, alpha=1.0, kappa=0.1, N=0))
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, "s.json", J=0.5, alpha=1.0, kappa=0.1, snapshots=-3))
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, "c.json", J=0.3, alpha=1.0, kappa=0.1))
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.json"))


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_unknown_command_usage_exit():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_check_unitarity_run(tmp_path):
    rc = main(
        ["check-unitarity", "--J", "3/2", "--alpha", "2.0", "--kappa", "0.7",
         "--phi", "0.4", "--outdir", str(tmp_path)]
    )
    assert rc == 0
    report = json.load(open(tmp_path / "unitarity.json"))
    assert report["max_defect"] < 1e-12
    assert set(report) == {"U0", "U", "Uprime", "Ubar", "max_defect"}
    manifest = json.load(open(tmp_path / "manifest.json"))
    assert "unitarity.json" in manifest["outputs"]


def test_master_csv_matches_closed_form(tmp_path):
    rc = main(
        ["master", "--J", "1/2", "--alpha", "4.0", "--kappa", "0.25", "--T", "1.0",
         "--dt", "1e-3", "--generator", "limit", "--outdir", str(tmp_path)]
    )
    assert rc == 0
    rows = open(tmp_path / "master.csv").read().strip().split("\n")
    assert rows[0] == "t,fx,fy,fz,fz2,purity"
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    t, fx = data[:, 0], data[:, 1]
    assert np.max(np.abs(fx - 0.5 * np.exp(-t / 2))) < 1e-8


def test_simulate_csv_header(tmp_path):
    rc = main(
        ["simulate", "--J", "1", "--alpha", "3.0", "--kappa", "0.2", "--T", "0.05",
         "--dt", "1e-3", "--scheme", "homodyne", "--mode", "linear",
         "--seed", "4", "--outdir", str(tmp_path)]
    )
    assert rc == 0
    header = open(tmp_path / "trajectory.csv").readline().strip()
    assert header == "t,event_or_dy,fx,fz,var_fz,purity,loglik"


def test_converge_csv(tmp_path):
    rc = main(
        ["converge", "--J", "1/2", "--M", "1.0", "--T", "1.0",
         "--alpha-list", "2,4,8,16", "--outdir", str(tmp_path)]
    )
    assert rc == 0
    rows = open(tmp_path / "converge.csv").read().strip().split("\n")
    assert rows[0] == "alpha,kappa,d_polarimetry,d_homodyne,rate_polarimetry,rate_homodyne"
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    assert np.all(np.diff(data[:, 2]) < 0)
    assert data[0, 4] == pytest.approx(2.0, abs=0.3)


def test_charfunc_csv(tmp_path):
    rc = main(
        ["charfunc", "--J", "1/2", "--alpha", "3.0", "--kappa", "0.2", "--T", "0.2",
         "--dt", "1e-3", "--process", "limit", "--N", "60", "--seed", "8",
         "--k-points", "5", "--outdir", str(tmp_path)]
    )
    assert rc == 0
    rows = open(tmp_path / "charfunc.csv").read().strip().split("\n")
    assert rows[0] == "k,t,re_analytic,im_analytic,re_empirical,im_empirical,stderr"
    assert len(rows) == 6


def test_ensemble_roundtrip_and_thread_invariance(tmp_path):
    base = ["ensemble", "--J", "1/2", "--alpha", "3.0", "--kappa", "0.2", "--T", "0.1",
            "--dt", "1e-3", "--scheme", "polarimetry", "--N", "40", "--seed", "21"]
    out1, out2, out3 = (tmp_path / n for n in ("run1", "run2", "run3"))
    assert main(base + ["--outdir", str(out1), "--threads", "1"]) == 0
    assert main(base + ["--outdir", str(out2), "--threads", "3"]) == 0
    for name in ("ensemble.csv", "terminals.csv", "mean_states.json"):
        assert sha256(out1 / name) == sha256(out2 / name), name
    # re-run from the manifest alone
    assert main(["ensemble", "--config", str(out1 / "manifest.json"), "--outdir", str(out3)]) == 0
    m1 = json.load(open(out1 / "manifest.json"))
    m3 = json.load(open(out3 / "manifest.json"))
    assert m1["outputs"] == m3["outputs"]


def test_ensemble_per_trajectory_dir(tmp_path):
    rc = main(
        ["ensemble", "--J", "1/2", "--alpha", "2.0", "--kappa", "0.2", "--T", "0.05",
         "--dt", "1e-3", "--scheme", "limit", "--N", "3", "--seed", "2",
         "--outdir", str(tmp_path), "--per-trajectory", "paths"]
    )
    assert rc == 0
    files = sorted(os.listdir(tmp_path / "paths"))
    assert files == [f"trajectory_{i:05d}.csv" for i in range(3)]


@pytest.mark.parametrize("scheme,J,N", [
    pytest.param("homodyne", "2", 20, id="homodyne"),
    pytest.param("limit", "2", 20, id="limit"),
    pytest.param("homodyne", "5", 300, id="homodyne-J5-N300"),
])
def test_per_trajectory_paths_are_the_ensemble_paths(tmp_path, scheme, J, N):
    # N = 300 runs as one batch of 300 in the ensemble and as slices of
    # 256 and 44 for the per-trajectory files
    rc = main(
        ["ensemble", "--J", J, "--alpha", "3", "--kappa", "0.2", "--T", "0.1",
         "--dt", "1e-3", "--scheme", scheme, "--N", str(N), "--seed", "2",
         "--outdir", str(tmp_path), "--per-trajectory", "paths"]
    )
    assert rc == 0
    lines = open(tmp_path / "terminals.csv").read().strip().split("\n")
    y = [float(row.split(",")[lines[0].split(",").index("y")]) for row in lines[1:]]
    assert len(y) == N
    for i, y_i in enumerate(y):
        rows = open(tmp_path / "paths" / f"trajectory_{i:05d}.csv").read().strip().split("\n")[2:]
        dy = np.array([float(row.split(",")[1]) for row in rows])
        assert np.cumsum(dy)[-1] == y_i, i


def test_config_error_exit_code(tmp_path):
    rc = main(["simulate", "--J", "0.5", "--alpha", "10.0", "--kappa", "0.1",
               "--T", "1.0", "--dt", "5e-3", "--scheme", "polarimetry",
               "--outdir", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_rejected(tmp_path, capsys, threads):
    rc = main(["ensemble", "--J", "1/2", "--alpha", "2.0", "--kappa", "0.2", "--T", "0.01",
               "--dt", "1e-3", "--scheme", "limit", "--N", "4", "--threads", threads,
               "--outdir", str(tmp_path)])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_run_ensemble_rejects_threads_below_one():
    from spinprobe import ModelParams, trajectory

    p = ModelParams.build(j=0.5, alpha=2.0, kappa=0.2, T=0.01, dt=1e-3)
    for threads in (0, -2):
        with pytest.raises(ValueError):
            trajectory.run_ensemble(p, "limit", 4, base_seed=1, threads=threads)


def test_outdir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("SPINPROBE_OUTDIR", str(tmp_path))
    rc = main(["check-unitarity", "--J", "1/2", "--alpha", "1.0", "--kappa", "0.3"])
    assert rc == 0
    assert (tmp_path / "unitarity.json").exists()
