"""spinprobe benchmark: closed-loop CLI workloads, end-to-end metrics and a per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload spin_half_charfunc --seed 1 --seconds 25 --trace 0

One client calls ``spinprobe.cli.main(argv)`` with generated argv, each command
starting when the previous one returns. With ``--trace 0`` it runs whole
rounds of the workload's commands for about ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it runs a fixed number of rounds
untraced, then the same rounds traced, and reports the per-layer metrics.
Outputs are checked after each round, outside the timed region. Details go
to ``.perfbench_work/<workload>/``; the last stdout line is the JSON result.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
import workloads
from tracer import Tracer, write_spans

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ".perfbench_work"
SETUP_REPEATS = 7
# the command a fresh interpreter runs for setup_s: one 10-step record
SETUP_ARGV = ("simulate", "--J", "1/2", "--alpha", "1", "--kappa", "0.1", "--dt", "1e-3", "--T", "0.01")

# (name, unit, better) of every end-to-end metric
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("filter_steps_per_s", "1/s", "higher"),
    ("record_p50_s", "s", "lower"),
    ("record_p75_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from spinprobe.cli import main; "
    "sys.exit(main(sys.argv[2:]))"
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (set-up or warm-up failed)."""


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _dirs(base: Path, commands) -> dict:
    return {cmd.label: base / cmd.label for cmd in commands}


def execute(cli, commands, dirs):
    """Run one round closed-loop; returns per-command seconds and exit codes."""
    for d in dirs.values():
        _fresh(d)
    times, codes = [], []
    for cmd in commands:
        argv = [*cmd.argv, "--outdir", str(dirs[cmd.label])]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:   # argparse rejected the argv
            code = exc.code
        except Exception:
            code = "raised"
            traceback.print_exc()
        times.append(time.perf_counter() - start)
        codes.append(code)
    return times, codes


def verify(commands, dirs, codes):
    """Check a round's outputs; returns (label -> error, label -> manifest sha256 map)."""
    errors, shas = {}, {}
    for cmd, code in zip(commands, codes):
        if code != 0:
            errors[cmd.label] = f"exit code {code}"
            continue
        try:
            shas[cmd.label] = workloads.manifest_outputs(dirs[cmd.label])
            err = workloads.CHECKS[cmd.check](cmd, dirs[cmd.label], dirs)
        except Exception as exc:
            traceback.print_exc()
            err = f"{type(exc).__name__}: {exc}"
        if err:
            errors[cmd.label] = err
    return errors, shas


def _round_record(index, commands, times, errors, shas):
    return {
        "round": index,
        "commands": [
            {"label": c.label, "argv": list(c.argv), "seconds": t, "error": errors.get(c.label),
             "outputs": shas.get(c.label)}
            for c, t in zip(commands, times)
        ],
    }


def measure_setup(outdir: Path, repeats: int) -> list:
    """Seconds from a fresh interpreter to spinprobe imported and one small command done."""
    samples = []
    for _ in range(repeats):
        _fresh(outdir)
        cmd = [sys.executable, "-c", _SETUP_CODE, str(ROOT / "src"), *SETUP_ARGV, "--outdir", str(outdir)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up command failed: {proc.stderr.decode(errors='replace')[-2000:]}")
    return samples


def warm_up(cli, wl, seed, base: Path):
    """One small round in-process, so imports and first-call costs precede timing.

    Its outputs are not checked: at this size the statistical checks have
    too few trajectories to be fair.
    """
    commands = workloads.get(wl.name, "tiny").commands(seed, 0)
    _, codes = execute(cli, commands, _dirs(base, commands))
    if any(code != 0 for code in codes):
        raise BenchError(f"warm-up round failed with exit codes {codes}")


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spinprobe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _p75(values):
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def measure(cli, wl, seed, seconds, base: Path):
    """Whole rounds until about `seconds` have passed; returns round records and metrics."""
    rounds, latencies, by_label = [], [], {}
    start = time.perf_counter()
    while True:
        index = len(rounds)
        commands = wl.commands(seed, index)
        dirs = _dirs(base, commands)
        times, codes = execute(cli, commands, dirs)
        errors, shas = verify(commands, dirs, codes)
        rounds.append(_round_record(index, commands, times, errors, shas))
        for cmd, t in zip(commands, times):
            by_label.setdefault(cmd.label, []).append(t)
            if cmd.steps:
                latencies.append(t)
        elapsed = time.perf_counter() - start
        if len(rounds) >= wl.min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    # one round's time, as the sum of each command's median over the rounds
    wall = sum(statistics.median(ts) for ts in by_label.values())
    values = {
        "wall_s": wall,
        "filter_steps_per_s": sum(c.steps for c in commands) / wall,
        "record_p50_s": statistics.median(latencies),
        "record_p75_s": _p75(latencies),
    }
    return rounds, values


def trace(cli, wl, seed, base: Path):
    """trace_rounds rounds untraced, then the same rounds traced; returns round records and metrics."""
    all_commands = [wl.commands(seed, r) for r in range(wl.trace_rounds)]
    rounds, untraced = [], 0.0
    for index, commands in enumerate(all_commands):
        dirs = _dirs(base / "untraced", commands)
        times, codes = execute(cli, commands, dirs)
        errors, shas = verify(commands, dirs, codes)
        rounds.append(_round_record(index, commands, times, errors, shas))
        untraced += sum(times)

    tracer = Tracer(layers.targets())
    runs = []
    with tracer:
        for index, commands in enumerate(all_commands):
            dirs = _dirs(base / f"traced_{index}", commands)
            runs.append((commands, dirs, execute(cli, commands, dirs)))
    output_bytes = 0
    for index, (commands, dirs, (times, codes)) in enumerate(runs):
        errors, shas = verify(commands, dirs, codes)
        rounds.append(_round_record(index, commands, times, errors, shas))
        for label, outputs in shas.items():
            output_bytes += sum(os.path.getsize(dirs[label] / name) for name in outputs)
    write_spans(tracer.spans, base / "spans.csv")
    values = layers.metrics(tracer.spans, untraced, output_bytes)
    return rounds, values, tracer.missing


def run(workload, seed, seconds, trace_on, workdir=None, scale="full", setup_repeats=SETUP_REPEATS):
    """Run one benchmark invocation; returns (report lines, result object)."""
    wl = workloads.get(workload, scale)
    work = Path(workdir or ROOT / WORKDIR) / workload
    work.mkdir(parents=True, exist_ok=True)
    lines = []
    setup = None
    if not trace_on:
        setup = measure_setup(work / "setup", setup_repeats)

    from spinprobe import cli

    warm_up(cli, wl, seed, work / "warmup")
    missing = []
    if trace_on:
        rounds, values, missing = trace(cli, wl, seed, work / "rounds")
        specs = layers.PER_LAYER
    else:
        rounds, values = measure(cli, wl, seed, seconds, work / "rounds")
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        specs = END_TO_END

    attempted = sum(len(r["commands"]) for r in rounds)
    failed = sum(c["error"] is not None for r in rounds for c in r["commands"])
    prov = provenance(workload, seed)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in specs}
    details = {
        "provenance": prov,
        "trace": bool(trace_on),
        "failed_frac": failed / attempted,
        "setup_samples_s": setup,
        "unwrapped": missing,
        "metrics": metrics,
        "rounds": rounds,
    }
    path = work / f"result_seed{seed}_trace{int(bool(trace_on))}.json"
    path.write_text(json.dumps(details, indent=1) + "\n")

    lines.append(f"workload {workload} seed {seed} trace {int(bool(trace_on))}: "
                 f"{len(rounds)} rounds, {attempted} commands, {failed} failed")
    lines.append("provenance " + json.dumps(prov, sort_keys=True))
    for r in rounds:
        for c in r["commands"]:
            if c["error"]:
                lines.append(f"FAILED round {r['round']} {c['label']}: {c['error']}")
    if missing:
        lines.append("not traced (attribute missing): " + ", ".join(missing))
    for name, spec in metrics.items():
        lines.append(f"{name} {spec['value']:.6g} {spec['unit']}")
    lines.append(f"failed_frac {failed / attempted:.6g} 1")
    lines.append(f"details {path}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spinprobe" / "__init__.py").is_file():
        print(f"perfbench: no spinprobe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        lines, result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
