import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinprobe
from spinprobe import charfuncs as cf
from spinprobe import trajectory as traj
from spinprobe.cli import ConfigError, main, parse_config
from spinprobe.generators import master_evolve
from spinprobe.spin_algebra import make_spin_ops


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
        parse_config(write_config(tmp_path, "z.json", J="1/0", alpha=1.0, kappa=0.1))
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, "i.json", J="inf", alpha=1.0, kappa=0.1))
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.json"))


@pytest.mark.parametrize("value", ["false", "true", "", 2, 0.5, None, [1]])
def test_record_full_state_must_be_boolean(tmp_path, value):
    with pytest.raises(ConfigError, match="record_full_state"):
        parse_config(write_config(tmp_path, J=0.5, alpha=1.0, kappa=0.1, record_full_state=value))


@pytest.mark.parametrize("value, expected", [(True, True), (False, False), (1, True), (0, False)])
def test_record_full_state_accepts_booleans_and_0_1(tmp_path, value, expected):
    cfg = parse_config(write_config(tmp_path, J=0.5, alpha=1.0, kappa=0.1, record_full_state=value))
    assert cfg.record_full_state is expected


def test_record_full_state_string_writes_no_states(tmp_path):
    config = write_config(tmp_path, J=0.5, alpha=1.0, kappa=0.1, T=0.01, record_full_state="false")
    rc = main(["simulate", "--config", config, "--outdir", str(tmp_path / "out")])
    assert rc == 2
    assert not (tmp_path / "out" / "states.json").exists()


@pytest.mark.parametrize("key", ["N", "base_seed", "k_points", "snapshots"])
def test_integer_keys_reject_fractions(tmp_path, key):
    with pytest.raises(ConfigError, match=key):
        parse_config(write_config(tmp_path, J=0.5, alpha=1.0, kappa=0.1, **{key: 2.7}))
    cfg = parse_config(write_config(tmp_path, "whole.json", J=0.5, alpha=1.0, kappa=0.1, **{key: 3.0}))
    assert getattr(cfg, key) == 3 and type(getattr(cfg, key)) is int


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


@pytest.mark.parametrize("argv, config", [
    pytest.param(["charfunc", "--process", "minus", "--B", "3"], None, id="charfunc-B"),
    pytest.param(["charfunc", "--process", "minus"], {"alpha_schedule": [[0.0, 4.0], [0.5, 8.0]]},
                 id="charfunc-schedule"),
    pytest.param(["converge", "--M", "1", "--B", "2"], None, id="converge-B"),
])
def test_analytic_commands_reject_field_and_schedule(tmp_path, capsys, argv, config):
    # the closed forms hold only at B = 0 with a constant drive
    if argv[0] == "charfunc":
        argv = argv + ["--alpha", "4", "--kappa", "0.25", "--dt", "1e-3", "--N", "20"]
    if config is not None:
        argv = argv + ["--config", write_config(tmp_path, **config)]
    out = tmp_path / "out"
    rc = main(argv + ["--J", "1/2", "--T", "1", "--outdir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "the analytic forms assume B = 0 and a constant drive" in err
    assert not (out / "manifest.json").exists()


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


def test_converge_rejects_bad_alpha_list(tmp_path, capsys):
    rc = main(["converge", "--J", "1/2", "--M", "1.0", "--T", "1.0",
               "--alpha-list", "2,x", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


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


def test_cli_runs_without_scipy(tmp_path):
    # one fresh interpreter: a 10-step simulate must not import scipy at all
    code = (
        "import json, sys\n"
        "from spinprobe.cli import main\n"
        "rc = main(['simulate', '--J', '1', '--alpha', '3', '--kappa', '0.2', '--T', '0.01', '--dt', '1e-3',"
        " '--outdir', sys.argv[1]])\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
    )
    src = str(Path(spinprobe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True,
                         check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [0, []]
    assert (tmp_path / "trajectory.csv").is_file()


def test_outdir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("SPINPROBE_OUTDIR", str(tmp_path))
    rc = main(["check-unitarity", "--J", "1/2", "--alpha", "1.0", "--kappa", "0.3"])
    assert rc == 0
    assert (tmp_path / "unitarity.json").exists()


# ---------------------------------------------------------------------------
# output bytes, rebuilt cell by cell as the row-wise writer formatted them
# ---------------------------------------------------------------------------

def _rowwise_csv(header, rows) -> bytes:
    def cell(v):
        return "%.17g" % v if isinstance(v, (float, np.floating)) else str(v)
    return (",".join(header) + "\n" + "".join(",".join(cell(v) for v in row) + "\n" for row in rows)).encode()


def _rowwise_matrix(m) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _rowwise_obs(rec, step):
    if step == 0:
        return ""
    if rec.scheme == "polarimetry":
        return {0: "", 1: "xi", 2: "eta"}[int(rec.events[step - 1])]
    return rec.dy[step - 1]


def _read(path) -> bytes:
    return open(path, "rb").read()


@pytest.mark.parametrize("scheme, mode", [
    ("polarimetry", "linear"), ("homodyne", "linear"), ("limit", "linear"), ("polarimetry", "normalized"),
])
def test_simulate_output_bytes(tmp_path, scheme, mode):
    rc = main(["simulate", "--J", "2", "--B", "0.5", "--alpha", "3", "--kappa", "0.2", "--T", "0.1",
               "--dt", "1e-3", "--scheme", scheme, "--mode", mode, "--seed", "5",
               "--record-full-state", "--outdir", str(tmp_path)])
    assert rc == 0
    cfg = parse_config(str(tmp_path / "manifest.json"))
    params = cfg.to_params()
    sim = {"polarimetry": traj.simulate_polarimetry, "homodyne": traj.simulate_homodyne,
           "limit": traj.simulate_limit}[scheme]
    rec = sim(params, cfg.base_seed, rho0=cfg.initial_rho(params), keep_states=True)
    loglik = rec.loglik if mode == "linear" else np.zeros_like(rec.t)
    rows = [(t, _rowwise_obs(rec, i), rec.fx[i], rec.fz[i], rec.var_z[i], rec.purity[i], loglik[i])
            for i, t in enumerate(rec.t)]
    header = ["t", "event_or_dy", "fx", "fz", "var_fz", "purity", "loglik"]
    assert _read(tmp_path / "trajectory.csv") == _rowwise_csv(header, rows)
    buf = io.StringIO()
    json.dump({"t": [float(t) for t in rec.t], "rho": [_rowwise_matrix(r) for r in rec.states]}, buf)
    assert _read(tmp_path / "states.json") == (buf.getvalue() + "\n").encode()


@pytest.mark.parametrize("enabled", [True, False])
def test_states_dump_leaves_the_collector_as_it_was(tmp_path, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        rc = main(["simulate", "--J", "1", "--alpha", "3", "--kappa", "0.2", "--T", "0.01", "--dt", "1e-3",
                   "--record-full-state", "--outdir", str(tmp_path)])
        assert rc == 0 and (tmp_path / "states.json").is_file()
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_ensemble_output_bytes(tmp_path):
    N = 20
    rc = main(["ensemble", "--J", "1/2", "--alpha", "3", "--kappa", "0.2", "--T", "0.1", "--dt", "1e-3",
               "--scheme", "polarimetry", "--N", str(N), "--seed", "21",
               "--outdir", str(tmp_path), "--per-trajectory", "paths"])
    assert rc == 0
    cfg = parse_config(str(tmp_path / "manifest.json"))
    params = cfg.to_params()
    rho0 = cfg.initial_rho(params)
    snaps = traj.default_snapshot_indices(params.n_steps, cfg.snapshots)
    summary = traj.run_ensemble(params, "polarimetry", N, cfg.base_seed, rho0=rho0, snapshot_indices=snaps)
    names = sorted(summary.series_mean)
    header = ["t"] + [f"{kind}_{name}" for name in names for kind in ("mean", "sem")]
    rows = [[t] + [v for name in names for v in (summary.series_mean[name][i], summary.series_sem[name][i])]
            for i, t in enumerate(summary.t)]
    assert _read(tmp_path / "ensemble.csv") == _rowwise_csv(header, rows)

    tnames = sorted(summary.terminals)
    assert any(summary.terminals[name].dtype.kind == "i" for name in tnames)
    rows = zip(*[summary.terminals[name] for name in tnames])
    assert _read(tmp_path / "terminals.csv") == _rowwise_csv(tnames, rows)

    buf = io.StringIO()
    json.dump({"snapshot_times": [float(summary.t[i]) for i in summary.snapshot_indices],
               "mean_rho": [_rowwise_matrix(r) for r in summary.mean_rho],
               "sem_frobenius": [float(x) for x in summary.sem_rho_frob]}, buf, indent=2)
    assert _read(tmp_path / "mean_states.json") == (buf.getvalue() + "\n").encode()

    records = traj._simulate_full("polarimetry", params, cfg.base_seed, rho0, False, list(range(N)))
    assert any(rec.events.any() for rec in records)
    for rec in records:
        rows = [(t, _rowwise_obs(rec, i), rec.fx[i], rec.fz[i], rec.var_z[i], rec.purity[i])
                for i, t in enumerate(rec.t)]
        expected = _rowwise_csv(["t", "event_or_dy", "fx", "fz", "var_fz", "purity"], rows)
        assert _read(tmp_path / "paths" / f"trajectory_{rec.traj_index:05d}.csv") == expected


@pytest.mark.parametrize("generator", ["finite", "limit"])
def test_master_output_bytes(tmp_path, generator):
    rc = main(["master", "--J", "2", "--B", "0.3", "--alpha", "4", "--kappa", "0.25", "--T", "0.05",
               "--dt", "1e-3", "--generator", generator, "--outdir", str(tmp_path)])
    assert rc == 0
    cfg = parse_config(str(tmp_path / "manifest.json"))
    params = cfg.to_params()
    times, states = master_evolve(cfg.initial_rho(params), params, generator=generator)
    f_x, f_y, f_z = make_spin_ops(params.space)
    rows = [(t, *(np.trace(rho @ op).real for op in (f_x, f_y, f_z, f_z @ f_z, rho)))
            for t, rho in zip(times, states)]
    assert _read(tmp_path / "master.csv") == _rowwise_csv(["t", "fx", "fy", "fz", "fz2", "purity"], rows)


def test_charfunc_output_bytes(tmp_path):
    rc = main(["charfunc", "--J", "1/2", "--alpha", "4", "--kappa", "0.25", "--T", "0.1", "--dt", "1e-3",
               "--process", "minus", "--N", "50", "--seed", "8", "--k-points", "7", "--outdir", str(tmp_path)])
    assert rc == 0
    cfg = parse_config(str(tmp_path / "manifest.json"))
    params = cfg.to_params()
    rho0 = cfg.initial_rho(params)
    k = cfg.k_grid()
    analytic = cf.charfunc_minus_analytic(k, params, np.diagonal(rho0).real)
    summary = traj.run_ensemble(params, "polarimetry", cfg.N, cfg.base_seed, rho0=rho0)
    empirical = cf.empirical_charfunc(summary, "minus", k)
    rows = [(k[i], params.T, analytic.values[i].real, analytic.values[i].imag,
             empirical.values[i].real, empirical.values[i].imag, empirical.stderr[i]) for i in range(k.size)]
    header = ["k", "t", "re_analytic", "im_analytic", "re_empirical", "im_empirical", "stderr"]
    assert _read(tmp_path / "charfunc.csv") == _rowwise_csv(header, rows)


def test_converge_output_bytes(tmp_path):
    rc = main(["converge", "--J", "1/2", "--M", "1.0", "--T", "1.0", "--alpha-list", "2,4,8",
               "--k-points", "9", "--outdir", str(tmp_path)])
    assert rc == 0
    p = np.array([0.5, 0.5])
    study = cf.convergence_study(1.0, (2.0, 4.0, 8.0), np.linspace(-5, 5, 9), 1.0, p, j=0.5)
    rows = [(study.alphas[i], study.kappas[i], study.d_polarimetry[i], study.d_homodyne[i],
             study.rate_polarimetry, study.rate_homodyne) for i in range(study.alphas.size)]
    header = ["alpha", "kappa", "d_polarimetry", "d_homodyne", "rate_polarimetry", "rate_homodyne"]
    assert _read(tmp_path / "converge.csv") == _rowwise_csv(header, rows)
