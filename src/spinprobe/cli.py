"""Command-line interface: configuration, dispatch and reproducible file output.

Configuration comes from an optional JSON file plus flag overrides (flags
win). Every run writes a manifest JSON with the resolved configuration, the
RNG identifier and sha256 checksums of the emitted files; re-running with
the manifest as the config file reproduces the outputs byte for byte at any
thread count. Exit codes: 0 ok, 1 invariant breach, 2 usage or config error.
"""

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import __version__
from .spin_algebra import SpinSpace, coherent_x_state, make_spin_ops, matrix_to_json
from .generators import ModelParams, master_evolve
from .ito_calculus import qsde_coefficients, unitarity_defect
from . import filters as filt
from . import trajectory as traj
from . import charfuncs as cf

UNITARITY_TOL = 1e-12
FLOAT_FMT = "%.17g"
OUTDIR_ENV = "SPINPROBE_OUTDIR"


class ConfigError(ValueError):
    """Bad configuration or usage; maps to exit code 2."""


class InvariantError(RuntimeError):
    """A declared invariant failed at run time; maps to exit code 1."""


@dataclass
class RunConfig:
    """Fully resolved run configuration; unknown input keys are rejected."""

    J: float = 0.5
    alpha: float = None
    kappa: float = None
    M: float = None
    phi: float = 0.0
    B: float = 0.0
    T: float = 1.0
    dt: float = 1e-3
    scheme: str = "polarimetry"
    mode: str = "normalized"
    N: int = 1
    base_seed: int = 0
    outdir: str = None
    k_min: float = -5.0
    k_max: float = 5.0
    k_points: int = 41
    alpha_list: tuple = (2.0, 4.0, 8.0, 16.0)
    initial_state: str = "coherent_x"
    snapshots: int = 11
    record_full_state: bool = False
    generator: str = "finite"
    process: str = None
    alpha_schedule: tuple = None

    def to_params(self) -> ModelParams:
        try:
            return ModelParams.build(
                j=self.J,
                alpha=self.alpha,
                kappa=self.kappa,
                M=self.M,
                phi=self.phi,
                B=self.B,
                T=self.T,
                dt=self.dt,
                alpha_schedule=self.alpha_schedule,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def initial_rho(self, params):
        space = params.space
        if self.initial_state == "coherent_x":
            return coherent_x_state(space).rho
        if self.initial_state == "maximally_mixed":
            return np.eye(space.dim, dtype=complex) / space.dim
        if self.initial_state == "fz_top":
            rho = np.zeros((space.dim, space.dim), dtype=complex)
            rho[0, 0] = 1.0
            return rho
        raise ConfigError(f"unknown initial_state {self.initial_state!r}")

    def k_grid(self) -> np.ndarray:
        if self.k_points < 1 or self.k_max < self.k_min:
            raise ConfigError("k grid needs k_points >= 1 and k_min <= k_max")
        return np.linspace(self.k_min, self.k_max, self.k_points)


_PROCESS_SCHEME = {"plus": "polarimetry", "minus": "polarimetry", "homodyne": "homodyne", "limit": "limit"}


def _parse_j(value):
    if isinstance(value, str) and "/" in value:
        num, den = value.split("/", 1)
        return float(num) / float(den)
    return float(value)


def _parse_int(name, value):
    out = int(value)
    if out != value:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return out


def parse_config(path=None, overrides=None) -> RunConfig:
    """Load, merge and validate the configuration.

    path may point at a plain config JSON or at a manifest produced by a
    previous run (its nested "config" object is used). overrides is a dict
    of already-typed values from command-line flags; flags win.
    """
    data = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a JSON object")
        if "config" in data and isinstance(data["config"], dict):
            data = data["config"]
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    merged = dict(data)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    cfg = RunConfig()
    for key, value in merged.items():
        setattr(cfg, key, value)
    try:
        cfg.J = _parse_j(cfg.J)
        SpinSpace.from_j(cfg.J)
        for name in ("alpha", "kappa", "M", "phi", "B", "T", "dt", "k_min", "k_max"):
            value = getattr(cfg, name)
            if value is not None:
                setattr(cfg, name, float(value))
        for name in ("N", "base_seed", "k_points", "snapshots"):
            setattr(cfg, name, _parse_int(name, getattr(cfg, name)))
        if cfg.record_full_state not in (True, False):   # a JSON boolean, 0 or 1
            raise ConfigError(f"record_full_state must be a boolean, got {cfg.record_full_state!r}")
        cfg.record_full_state = bool(cfg.record_full_state)
        if cfg.alpha_list is not None:
            cfg.alpha_list = tuple(float(a) for a in cfg.alpha_list)
        if cfg.alpha_schedule is not None:
            cfg.alpha_schedule = tuple((float(t), float(a)) for t, a in cfg.alpha_schedule)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(str(exc)) from exc

    if cfg.scheme not in filt.SCHEMES:
        raise ConfigError(f"scheme must be one of {filt.SCHEMES}, got {cfg.scheme!r}")
    if cfg.mode not in filt.MODES:
        raise ConfigError(f"mode must be one of {filt.MODES}, got {cfg.mode!r}")
    if cfg.N < 1:
        raise ConfigError("N must be at least 1")
    if cfg.snapshots < 0:
        raise ConfigError("snapshots must be at least 0")
    if not 0 <= cfg.base_seed < 2**64:
        raise ConfigError("base_seed must be a 64-bit unsigned integer")
    if cfg.initial_state not in ("coherent_x", "maximally_mixed", "fz_top"):
        raise ConfigError(f"unknown initial_state {cfg.initial_state!r}")
    if cfg.process is not None and cfg.process not in cf.PROCESSES:
        raise ConfigError(f"process must be one of {cf.PROCESSES}, got {cfg.process!r}")
    if cfg.generator not in ("finite", "limit"):
        raise ConfigError(f"generator must be 'finite' or 'limit', got {cfg.generator!r}")

    # Reconcile alpha/kappa/M when determinable; commands that need full model
    # parameters and lack them fail in their own to_params() call.
    if sum(v is not None for v in (cfg.alpha, cfg.kappa, cfg.M)) >= 2:
        params = cfg.to_params()  # validates reconciliation and the time grid
        scheme = cfg.scheme if cfg.process is None else _PROCESS_SCHEME[cfg.process]
        try:
            filt.check_jump_bound(scheme, params, params.time_grid()[:-1])
        except ValueError as exc:
            raise ConfigError(f"{scheme} scheme: {exc}") from exc
    if cfg.outdir is None:
        cfg.outdir = os.environ.get(OUTDIR_ENV, ".")
    return cfg


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _cells(column) -> list:
    values = column.tolist() if isinstance(column, np.ndarray) else column
    return [FLOAT_FMT % v if isinstance(v, float) else str(v) for v in values]


def write_csv(path, header, columns):
    """Write equal-length columns (arrays or lists): floats with FLOAT_FMT, anything else with str."""
    rows = zip(*map(_cells, columns))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join(",".join(row) + "\n" for row in rows))


@contextlib.contextmanager
def _gc_paused():
    """Hold off the cyclic collector while acyclic temporaries are built and dropped.

    A record's states make tens of thousands of nested lists; left on, the
    collector would scan them repeatedly and at times sweep the whole heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(outdir, command, cfg: RunConfig, outputs, threads, started):
    manifest = {
        "tool": "spinprobe",
        "version": __version__,
        "command": command,
        "rng": traj.RNG_NAME,
        "threads": threads,
        "wall_clock_s": time.time() - started,
        "config": asdict(cfg),
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    }
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check_unitarity(cfg: RunConfig, outdir, threads):
    params = cfg.to_params()
    report = {}
    worst = 0.0
    for name in ("U0", "U", "Uprime", "Ubar"):
        defect = unitarity_defect(qsde_coefficients(name, params, t=0.0))
        norms = defect.norms()
        report[name] = norms
        worst = max(worst, defect.max_norm())
    report["max_defect"] = worst
    path = os.path.join(outdir, "unitarity.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    if worst >= UNITARITY_TOL:
        raise InvariantError(f"unitarity defect {worst:.3e} >= {UNITARITY_TOL}")
    return [path]


def cmd_master(cfg: RunConfig, outdir, threads):
    params = cfg.to_params()
    rho0 = cfg.initial_rho(params)
    times, states = master_evolve(rho0, params, generator=cfg.generator)
    f_x, f_y, f_z = make_spin_ops(params.space)
    moments = [np.trace(states @ op, axis1=1, axis2=2).real for op in (f_x, f_y, f_z, f_z @ f_z, states)]
    path = os.path.join(outdir, "master.csv")
    write_csv(path, ["t", "fx", "fy", "fz", "fz2", "purity"], [times, *moments])
    return [path]


def _obs_column(rec) -> list:
    """Event labels or dy per row of a record, empty on the initial row."""
    if rec.scheme == "polarimetry":
        return [""] + [("", "xi", "eta")[e] for e in rec.events.tolist()]
    return [""] + rec.dy.tolist()


def cmd_simulate(cfg: RunConfig, outdir, threads):
    params = cfg.to_params()
    sim = {
        "polarimetry": traj.simulate_polarimetry,
        "homodyne": traj.simulate_homodyne,
        "limit": traj.simulate_limit,
    }[cfg.scheme]
    rec = sim(params, cfg.base_seed, rho0=cfg.initial_rho(params), keep_states=cfg.record_full_state)
    loglik = rec.loglik if cfg.mode == "linear" else np.zeros_like(rec.t)
    path = os.path.join(outdir, "trajectory.csv")
    write_csv(
        path,
        ["t", "event_or_dy", "fx", "fz", "var_fz", "purity", "loglik"],
        [rec.t, _obs_column(rec), rec.fx, rec.fz, rec.var_z, rec.purity, loglik],
    )
    outputs = [path]
    if cfg.record_full_state:
        spath = os.path.join(outdir, "states.json")
        with _gc_paused():
            text = json.dumps({"t": rec.t.tolist(), "rho": matrix_to_json(rec.states)})
        with open(spath, "w") as fh:
            fh.write(text)
            fh.write("\n")
        outputs.append(spath)
    return outputs


def cmd_ensemble(cfg: RunConfig, outdir, threads, per_trajectory=None):
    params = cfg.to_params()
    rho0 = cfg.initial_rho(params)
    snaps = traj.default_snapshot_indices(params.n_steps, cfg.snapshots)
    summary = traj.run_ensemble(
        params, cfg.scheme, cfg.N, cfg.base_seed, rho0=rho0, threads=threads, snapshot_indices=snaps
    )
    names = sorted(summary.series_mean)
    header, columns = ["t"], [summary.t]
    for name in names:
        header += [f"mean_{name}", f"sem_{name}"]
        columns += [summary.series_mean[name], summary.series_sem[name]]
    path = os.path.join(outdir, "ensemble.csv")
    write_csv(path, header, columns)

    tpath = os.path.join(outdir, "terminals.csv")
    tnames = sorted(summary.terminals)
    write_csv(tpath, tnames, [summary.terminals[name] for name in tnames])

    spath = os.path.join(outdir, "mean_states.json")
    with open(spath, "w") as fh:
        json.dump(
            {
                "snapshot_times": [float(summary.t[i]) for i in summary.snapshot_indices],
                "mean_rho": matrix_to_json(summary.mean_rho),
                "sem_frobenius": [float(x) for x in summary.sem_rho_frob],
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    outputs = [path, tpath, spath]

    if per_trajectory:
        tdir = os.path.join(outdir, per_trajectory)
        os.makedirs(tdir, exist_ok=True)
        for indices in traj._blocks(cfg.N):
            for rec in traj._simulate_full(cfg.scheme, params, cfg.base_seed, rho0, False, indices):
                tp = os.path.join(tdir, f"trajectory_{rec.traj_index:05d}.csv")
                write_csv(
                    tp,
                    ["t", "event_or_dy", "fx", "fz", "var_fz", "purity"],
                    [rec.t, _obs_column(rec), rec.fx, rec.fz, rec.var_z, rec.purity],
                )
                outputs.append(tp)
    return outputs


def _require_analytic_model(cfg: RunConfig, command):
    """The closed-form characteristic functionals hold only without a field and at a constant drive."""
    if cfg.B != 0 or cfg.alpha_schedule is not None:
        raise ConfigError(f"{command}: the analytic forms assume B = 0 and a constant drive "
                          "(no alpha_schedule)")


def cmd_charfunc(cfg: RunConfig, outdir, threads):
    if cfg.process is None:
        raise ConfigError("charfunc requires a process (plus, minus, homodyne or limit)")
    _require_analytic_model(cfg, "charfunc")
    scheme = _PROCESS_SCHEME[cfg.process]
    params = cfg.to_params()
    rho0 = cfg.initial_rho(params)
    p = np.diagonal(rho0).real
    k = cfg.k_grid()
    analytic = cf.charfunc_analytic(cfg.process, k, params=params, p=p)
    summary = traj.run_ensemble(params, scheme, cfg.N, cfg.base_seed, rho0=rho0, threads=threads, series=False)
    empirical = cf.empirical_charfunc(summary, cfg.process, k)
    path = os.path.join(outdir, "charfunc.csv")
    write_csv(
        path,
        ["k", "t", "re_analytic", "im_analytic", "re_empirical", "im_empirical", "stderr"],
        [k, [params.T] * k.size, analytic.values.real, analytic.values.imag,
         empirical.values.real, empirical.values.imag, empirical.stderr],
    )
    return [path]


def cmd_converge(cfg: RunConfig, outdir, threads):
    _require_analytic_model(cfg, "converge")
    if cfg.M is None:
        params = cfg.to_params()
        m_value = params.M
    else:
        m_value = cfg.M
    rho0 = cfg.initial_rho(ModelParams.build(j=cfg.J, alpha=1.0, kappa=0.0, T=cfg.T, dt=cfg.T))
    p = np.diagonal(rho0).real
    study = cf.convergence_study(m_value, cfg.alpha_list, cfg.k_grid(), cfg.T, p, j=cfg.J)
    n = study.alphas.size
    path = os.path.join(outdir, "converge.csv")
    write_csv(
        path,
        ["alpha", "kappa", "d_polarimetry", "d_homodyne", "rate_polarimetry", "rate_homodyne"],
        [study.alphas, study.kappas, study.d_polarimetry, study.d_homodyne,
         [study.rate_polarimetry] * n, [study.rate_homodyne] * n],
    )
    if n > 1:
        if not (np.all(np.diff(study.d_polarimetry) < 0) and np.all(np.diff(study.d_homodyne) < 0)):
            raise InvariantError("convergence distances are not strictly decreasing")
    return [path]


COMMANDS = {
    "simulate": cmd_simulate,
    "ensemble": cmd_ensemble,
    "master": cmd_master,
    "charfunc": cmd_charfunc,
    "converge": cmd_converge,
    "check-unitarity": cmd_check_unitarity,
}

_CSV_DOC = """CSV column orders (fixed):
  simulate    t, event_or_dy, fx, fz, var_fz, purity, loglik
  master      t, fx, fy, fz, fz2, purity
  ensemble    t, then mean_/sem_ pairs in alphabetical series order;
              terminals.csv has per-trajectory terminal columns
  charfunc    k, t, re_analytic, im_analytic, re_empirical, im_empirical, stderr
  converge    alpha, kappa, d_polarimetry, d_homodyne, rate_polarimetry, rate_homodyne
Floats are printed with 17 significant digits for exact round-tripping."""


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinprobe",
        description="Spin-gas polarimetry and homodyne co-simulation toolbox.",
        epilog=_CSV_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"spinprobe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, epilog=_CSV_DOC, formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", help="JSON config file or a previous run manifest")
        p.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV} or .)")
        p.add_argument("--threads", type=int, default=1, help="trajectory worker threads")
        p.add_argument("--J", help="spin magnitude (number or fraction like 3/2)")
        p.add_argument("--alpha", type=float)
        p.add_argument("--kappa", type=float)
        p.add_argument("--M", type=float)
        p.add_argument("--phi", type=float)
        p.add_argument("--B", type=float)
        p.add_argument("--T", type=float)
        p.add_argument("--dt", type=float)
        p.add_argument("--scheme", choices=filt.SCHEMES)
        p.add_argument("--mode", choices=filt.MODES)
        p.add_argument("--N", type=int)
        p.add_argument("--seed", dest="base_seed", type=int)
        p.add_argument("--k-min", dest="k_min", type=float)
        p.add_argument("--k-max", dest="k_max", type=float)
        p.add_argument("--k-points", dest="k_points", type=int)
        p.add_argument("--alpha-list", dest="alpha_list", help="comma-separated drive amplitudes")
        p.add_argument("--initial-state", dest="initial_state",
                       choices=("coherent_x", "maximally_mixed", "fz_top"))
        p.add_argument("--snapshots", type=int)
        p.add_argument("--record-full-state", dest="record_full_state", action="store_const", const=True)
        p.add_argument("--generator", choices=("finite", "limit"))
        p.add_argument("--process", choices=cf.PROCESSES)
        if name == "ensemble":
            p.add_argument("--per-trajectory", help="subdirectory for per-trajectory CSVs")
    return parser


def _overrides_from_args(args) -> dict:
    out = {}
    for key in (f.name for f in fields(RunConfig)):   # flag dests are the field names
        value = getattr(args, key, None)
        if value is None:
            continue
        if key == "alpha_list" and isinstance(value, str):
            try:
                value = tuple(float(a) for a in value.split(","))
            except ValueError:
                raise ConfigError(f"alpha_list must be comma-separated numbers, got {value!r}") from None
        out[key] = value
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        if args.threads < 1:
            raise ConfigError("threads must be at least 1")
        cfg = parse_config(args.config, _overrides_from_args(args))
        outdir = cfg.outdir
        os.makedirs(outdir, exist_ok=True)
        command = COMMANDS[args.command]
        if args.command == "ensemble":
            outputs = command(cfg, outdir, args.threads, per_trajectory=getattr(args, "per_trajectory", None))
        else:
            outputs = command(cfg, outdir, args.threads)
        manifest = write_manifest(outdir, args.command, cfg, outputs, args.threads, started)
        print(f"wrote {len(outputs)} file(s) + {os.path.basename(manifest)} in {outdir}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
