"""Which spinprobe functions the tracer wraps, and the per-layer metrics made from the spans.

Layers are the package's modules: cli, trajectory, filters, generators and
charfuncs. spin_algebra and ito_calculus get no spans; time spent in them
counts as self time of the calling layer.
"""

import numpy as np

from tracer import Target, outermost, self_times

LAYERS = ("cli", "trajectory", "filters", "generators", "charfuncs")

ZAKAI = ("filters.pol_drift_raw", "filters.pol_jump_raw", "filters.homodyne_raw", "filters.limit_raw")
ANALYTIC = (
    "charfuncs.charfunc_analytic",
    "charfuncs.charfunc_plus_analytic",
    "charfuncs.charfunc_minus_analytic",
    "charfuncs.charfunc_homodyne_analytic",
    "charfuncs.charfunc_limit_analytic",
)
TRAJECTORY_ENTRY = ("run_ensemble", "simulate_polarimetry", "simulate_homodyne", "simulate_limit", "_simulate_block")
FILTER_KERNELS = ("build_kernels", "pol_drift_raw", "pol_jump_raw", "homodyne_raw", "limit_raw")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("trajectory.traj_steps", "count", "lower"),
    ("trajectory.block_steps", "count", "lower"),
    ("trajectory.busy_s", "s", "lower"),
    ("trajectory.self_s", "s", "lower"),
    ("trajectory.self_us_per_block_step", "us", "lower"),
    ("trajectory.rng_s", "s", "lower"),
    ("filters.zakai_calls", "count", "lower"),
    ("filters.zakai_s", "s", "lower"),
    ("filters.finish_step_s", "s", "lower"),
    ("filters.min_eig_s", "s", "lower"),
    ("filters.min_eig_rows", "count", "lower"),
    ("filters.project_positive_s", "s", "lower"),
    ("filters.projections_fired", "count", "lower"),
    ("filters.projection_rate", "1", "lower"),
    ("filters.worst_min_eig", "1", "higher"),
    ("filters.run_filter_s", "s", "lower"),
    ("filters.replay_us_per_step", "us", "lower"),
    ("filters.self_s", "s", "lower"),
    ("generators.master_evolve_s", "s", "lower"),
    ("generators.master_us_per_step", "us", "lower"),
    ("generators.self_s", "s", "lower"),
    ("charfuncs.analytic_s", "s", "lower"),
    ("charfuncs.empirical_s", "s", "lower"),
    ("charfuncs.self_s", "s", "lower"),
    ("cli.write_csv_s", "s", "lower"),
    ("cli.write_manifest_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_frac", "1", "lower"),
    ("trace.spans", "count", "lower"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(args, kwargs, out):
    arr = args[0]
    return int(np.prod(arr.shape[:-2], dtype=np.int64))


def _min_eig(args, kwargs, out):
    return _rows(args, kwargs, out), float(np.min(out))


def _projected(args, kwargs, out):
    """Rows that project_positive changed; it hands back its input when none breach the floor."""
    rho = args[0]
    if out is rho:
        return 0
    if rho.ndim == 2:
        return 1
    return int(np.count_nonzero(np.any(out != rho, axis=(-2, -1))))


def _replay_steps(args, kwargs, out):
    return len(_arg(args, kwargs, 3, "observations"))


def _master_steps(args, kwargs, out):
    return _arg(args, kwargs, 1, "params").n_steps


class _TimedDraws:
    """A random generator whose calls record "trajectory.rng" spans."""

    def __init__(self, tracer, gen):
        self._tracer = tracer
        self._gen = gen

    def __getattr__(self, attr):
        value = getattr(self._gen, attr)
        if callable(value):
            return self._tracer.wrap(value, "trajectory.rng", "trajectory", "trajectory")
        return value


def targets():
    """Wrap targets for every function a workload reaches, at each name it is called by."""
    from spinprobe import cli, trajectory, filters, generators, charfuncs

    out = [
        Target(cli, "main", "cli.main", "cli"),
        Target(cli, "write_csv", "cli.write_csv", "cli"),
        Target(cli, "write_manifest", "cli.write_manifest", "cli"),
        Target(cli, "master_evolve", "generators.master_evolve", "generators", _master_steps),
        Target(generators, "master_evolve", "generators.master_evolve", "generators", _master_steps),
        Target(trajectory, "trajectory_rng", "trajectory.rng", "trajectory",
               result=lambda tracer, gen: _TimedDraws(tracer, gen)),
        Target(trajectory, "finish_step", "filters.finish_step", "filters", _rows),
        Target(filters, "finish_step", "filters.finish_step", "filters", _rows),
        Target(filters, "project_positive", "filters.project_positive", "filters", _projected),
        Target(filters, "min_eig_hermitian", "filters.min_eig_hermitian", "filters", _min_eig),
        Target(filters, "run_filter", "filters.run_filter", "filters", _replay_steps),
        Target(charfuncs, "empirical_charfunc", "charfuncs.empirical_charfunc", "charfuncs"),
    ]
    out += [Target(trajectory, name, f"trajectory.{name}", "trajectory") for name in TRAJECTORY_ENTRY]
    for module in (trajectory, filters):
        out += [Target(module, name, f"filters.{name}", "filters") for name in FILTER_KERNELS]
    out += [Target(charfuncs, name.split(".")[1], name, "charfuncs") for name in ANALYTIC]
    return out


def metrics(spans, untraced_wall_s, output_bytes) -> dict:
    """Per-layer metric values from the spans of a traced run."""
    selfs = self_times(spans)

    def busy(*names):
        return sum(s.end - s.start for s in outermost(spans, names))

    def self_of(*names):
        return sum(selfs[s.sid] for s in spans if s.name in names)

    def named(name, site=None):
        return [s for s in spans if s.name == name and (site is None or s.site == site)]

    layer_self = {layer: sum(selfs[s.sid] for s in spans if s.layer == layer) for layer in LAYERS}
    wall = busy("cli.main")

    co_steps = named("filters.finish_step", "trajectory")   # one call per block-step
    block_steps = len(co_steps)
    eig = [s.payload for s in named("filters.min_eig_hermitian") if s.payload is not None]
    eig_rows = sum(rows for rows, _ in eig)
    fired = sum(s.payload or 0 for s in named("filters.project_positive"))
    replay_steps = sum(s.payload or 0 for s in named("filters.run_filter"))
    master_steps = sum(s.payload or 0 for s in outermost(spans, ["generators.master_evolve"]))
    run_filter_s = busy("filters.run_filter")
    master_s = busy("generators.master_evolve")

    return {
        "trajectory.traj_steps": sum(s.payload or 0 for s in co_steps),
        "trajectory.block_steps": block_steps,
        "trajectory.busy_s": busy(*{s.name for s in spans if s.layer == "trajectory"}),
        "trajectory.self_s": layer_self["trajectory"],
        "trajectory.self_us_per_block_step": 1e6 * layer_self["trajectory"] / block_steps if block_steps else 0.0,
        "trajectory.rng_s": busy("trajectory.rng"),
        "filters.zakai_calls": sum(len(named(n)) for n in ZAKAI),
        "filters.zakai_s": busy(*ZAKAI),
        "filters.finish_step_s": self_of("filters.finish_step"),
        "filters.min_eig_s": busy("filters.min_eig_hermitian"),
        "filters.min_eig_rows": eig_rows,
        "filters.project_positive_s": self_of("filters.project_positive"),
        "filters.projections_fired": fired,
        "filters.projection_rate": fired / eig_rows if eig_rows else 0.0,
        "filters.worst_min_eig": min((w for _, w in eig), default=0.0),
        "filters.run_filter_s": run_filter_s,
        "filters.replay_us_per_step": 1e6 * run_filter_s / replay_steps if replay_steps else 0.0,
        "filters.self_s": layer_self["filters"],
        "generators.master_evolve_s": master_s,
        "generators.master_us_per_step": 1e6 * master_s / master_steps if master_steps else 0.0,
        "generators.self_s": layer_self["generators"],
        "charfuncs.analytic_s": busy(*ANALYTIC),
        "charfuncs.empirical_s": busy("charfuncs.empirical_charfunc"),
        "charfuncs.self_s": layer_self["charfuncs"],
        "cli.write_csv_s": busy("cli.write_csv"),
        "cli.write_manifest_s": busy("cli.write_manifest"),
        "cli.self_s": layer_self["cli"],
        "cli.output_bytes": output_bytes,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": wall - untraced_wall_s,
        "trace.self_sum_frac": sum(layer_self.values()) / wall if wall else 0.0,
        "trace.spans": len(spans),
    }
