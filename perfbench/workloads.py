"""The benchmark's workloads: generated spinprobe argv per round, and output checks.

A workload is a list of CLI commands that make up one round. The benchmark
runs rounds closed-loop, one command after another. Every command's seed is
derived from the benchmark seed and the round index, so one benchmark seed
gives the same argv every time. The program sees only the generated argv.
"""

import csv
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

# Sizes per scale: "full" is the benchmark, "tiny" is for the benchmark's own tests.
SCALES = {
    "full": {"half_T": 0.1, "half_N": 1024, "five_T": 0.02, "five_N": 512, "rec_T": 0.8},
    "tiny": {"half_T": 0.002, "half_N": 64, "five_T": 0.03, "five_N": 128, "rec_T": 0.02},
}

CHARFUNC_SIGMAS = 4.0       # |empirical - analytic| <= 4/sqrt(N) ...
CHARFUNC_MIN_SHARE = 0.95   # ... on at least this share of k
TOWER_SEMS = 5.0            # |ensemble mean - master| <= 5 sem, on the rows with t >= T/2
REPLAY_TOL = 1e-8           # replayed fz vs recorded fz
TRACE_TOL = 1e-10           # unit trace of recorded states
EIG_FLOOR = -1e-9           # smallest allowed eigenvalue of recorded states


@dataclass(frozen=True)
class Command:
    """One CLI call of a round."""

    label: str      # unique within the round, names the output directory
    argv: tuple     # spinprobe argv, without --outdir
    steps: int      # trajectory-steps the command asks for: co-simulation plus replay
    check: str      # name of the output check in CHECKS


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    min_rounds: int     # rounds run even when --seconds is shorter
    trace_rounds: int   # rounds in each half (untraced, traced) of a traced run
    scale: str = "full"

    def commands(self, seed: int, round_index: int) -> list:
        seeds = [int(s) for s in np.random.SeedSequence([seed, round_index]).generate_state(8, np.uint64)]
        return _BUILDERS[self.name](SCALES[self.scale], seeds)


def _steps(T, dt):
    return round(T / dt)


def _spin_half_charfunc(sizes, seeds):
    T, N, dt = sizes["half_T"], sizes["half_N"], 1e-4
    out = []
    for i, process in enumerate(("minus", "homodyne", "limit")):
        argv = ("charfunc", "--J", "1/2", "--alpha", "4", "--kappa", "0.25", "--dt", repr(dt),
                "--T", repr(T), "--N", str(N), "--threads", "1", "--process", process,
                "--seed", str(seeds[i]))
        out.append(Command(f"charfunc_{process}", argv, N * _steps(T, dt), "charfunc"))
    return out


def _spin_five_tower(sizes, seeds):
    T, N, dt = sizes["five_T"], sizes["five_N"], 1e-4
    common = ("--J", "5", "--alpha", "4", "--kappa", "0.25", "--dt", repr(dt), "--T", repr(T))
    out = []
    for i, scheme in enumerate(("polarimetry", "homodyne", "limit")):
        argv = ("ensemble", *common, "--N", str(N), "--scheme", scheme, "--seed", str(seeds[i]),
                "--threads", "1")
        out.append(Command(f"ensemble_{scheme}", argv, N * _steps(T, dt), "tower"))
    for generator in ("finite", "limit"):
        argv = ("master", *common, "--generator", generator)
        out.append(Command(f"master_{generator}", argv, 0, "master"))
    return out


def _record_replay(sizes, seeds):
    T, dt = sizes["rec_T"], 1e-3
    out = []
    for i, scheme in enumerate(("polarimetry", "homodyne", "limit")):
        argv = ("simulate", "--J", "2", "--alpha", "3", "--kappa", "0.2", "--B", "0.5",
                "--dt", repr(dt), "--T", repr(T), "--mode", "linear", "--record-full-state",
                "--scheme", scheme, "--seed", str(seeds[i]))
        # linear mode replays the record once after co-simulating it
        out.append(Command(f"simulate_{scheme}", argv, 2 * _steps(T, dt), "record"))
    return out


_BUILDERS = {
    "spin_half_charfunc": _spin_half_charfunc,
    "spin_five_tower": _spin_five_tower,
    "record_replay": _record_replay,
}

WORKLOADS = {
    "spin_half_charfunc": dict(
        why="J=1/2 charfunc for minus, homodyne and limit on 1 thread: Python overhead of the "
            "trajectory loop dominates and the dim-2 eigenvalue check is closed form",
        min_rounds=2, trace_rounds=1,
    ),
    "spin_five_tower": dict(
        why="J=5 ensembles of all three schemes plus both master equations on 1 thread: the "
            "eigvalsh positivity check and projections dominate",
        min_rounds=2, trace_rounds=1,
    ),
    "record_replay": dict(
        why="single J=2 records with B=0.5 in linear mode with full states: batch-1 engine, scalar "
            "replay and CSV/JSON output, no ensemble batching",
        min_rounds=14, trace_rounds=4,
    ),
}


def get(name: str, scale: str = "full") -> Workload:
    return Workload(name, scale=scale, **WORKLOADS[name])


# ---------------------------------------------------------------------------
# output checks; each returns an error string, or None when the output is right
# ---------------------------------------------------------------------------

def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _columns(path):
    header, rows = _read_csv(path)
    return {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def check_charfunc(cmd, outdir, round_dirs):
    col = _columns(os.path.join(outdir, "charfunc.csv"))
    analytic = col["re_analytic"] + 1j * col["im_analytic"]
    empirical = col["re_empirical"] + 1j * col["im_empirical"]
    bound = CHARFUNC_SIGMAS / np.sqrt(int(_flag(cmd.argv, "--N")))
    share = float(np.mean(np.abs(empirical - analytic) <= bound))
    if share < CHARFUNC_MIN_SHARE:
        return f"empirical within 4/sqrt(N) of analytic on only {share:.1%} of k"
    return None


def check_tower(cmd, outdir, round_dirs):
    ens = _columns(os.path.join(outdir, "ensemble.csv"))
    generator = "limit" if _flag(cmd.argv, "--scheme") == "limit" else "finite"
    master = _columns(os.path.join(round_dirs[f"master_{generator}"], "master.csv"))
    if ens["t"].shape != master["t"].shape or np.max(np.abs(ens["t"] - master["t"])) > 1e-12:
        return "ensemble and master time grids differ"
    # Early on, a counting ensemble may hold no count at all, so its sem is 0
    # while the master equation has already moved; from T/2 on, hundreds of
    # trajectories have counted and the sem is a fair yardstick.
    rows = ens["t"] >= 0.5 * ens["t"][-1]
    for name in ("fx", "fz"):
        excess = np.abs(ens[f"mean_{name}"] - master[name]) - TOWER_SEMS * ens[f"sem_{name}"]
        excess = np.where(rows, excess, -np.inf)
        if np.max(excess) > 0:
            return f"mean_{name} leaves 5 sem of the master equation at t={ens['t'][np.argmax(excess)]:.6g}"
    return None


def check_master(cmd, outdir, round_dirs):
    col = _columns(os.path.join(outdir, "master.csv"))
    if not all(np.all(np.isfinite(v)) for v in col.values()):
        return "non-finite master moments"
    if np.max(col["purity"]) > 1.0 + 1e-9:
        return "master purity exceeds 1"
    return None


def check_record(cmd, outdir, round_dirs):
    from spinprobe import cli, filters
    from spinprobe.spin_algebra import matrix_from_json

    cfg = cli.parse_config(os.path.join(outdir, "manifest.json"))
    params = cfg.to_params()
    header, rows = _read_csv(os.path.join(outdir, "trajectory.csv"))
    labels = [r[header.index("event_or_dy")] for r in rows[1:]]
    if cfg.scheme == "polarimetry":
        obs = np.array([{"": 0, "xi": 1, "eta": 2}[x] for x in labels], dtype=np.int8)
    else:
        obs = np.array([float(x) for x in labels])
    replay = filters.run_filter(cfg.scheme, "normalized", params, obs, rho0=cfg.initial_rho(params))
    fz = np.array([float(r[header.index("fz")]) for r in rows])
    err = float(np.max(np.abs(replay.fz - fz)))
    if err > REPLAY_TOL:
        return f"replayed fz differs from the record by {err:.3e}"
    with open(os.path.join(outdir, "states.json")) as fh:
        states = np.array([matrix_from_json(m) for m in json.load(fh)["rho"]])
    if len(states) != len(rows):
        return f"{len(states)} states for {len(rows)} record rows"
    trace_err = float(np.max(np.abs(np.einsum("bii->b", states) - 1.0)))
    if trace_err > TRACE_TOL:
        return f"state trace off by {trace_err:.3e}"
    worst = float(np.min(np.linalg.eigvalsh(states)))
    if worst < EIG_FLOOR:
        return f"state eigenvalue {worst:.3e} below {EIG_FLOOR}"
    return None


CHECKS = {
    "charfunc": check_charfunc,
    "tower": check_tower,
    "master": check_master,
    "record": check_record,
}


def manifest_outputs(outdir):
    """sha256 map from the command's manifest, after checking it against the files."""
    with open(os.path.join(outdir, "manifest.json")) as fh:
        outputs = json.load(fh)["outputs"]
    for name, digest in outputs.items():
        with open(os.path.join(outdir, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                raise ValueError(f"{name} does not match its manifest sha256")
    return outputs
