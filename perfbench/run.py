"""Benchmark of the longmatch CLI, driven the way an analyst runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a longmatch checkout. The benchmark writes the
workload's config (see workloads.py), runs `longmatch synth` several times
to make the inputs (set-up), then repeats rounds of the analysis pipeline
until the run's seconds are used, with at least two rounds. A round runs
`ingest`, `pairs`, `calibrate`, `fnmr`, `det`, `failures`, `fuse`, `lmm`,
`apc`, `cv` and `report`, each as its own `python -m longmatch.cli`
process, one after another, in a fresh directory holding a copy of the
inputs. Outside the timed region the outputs are checked (checks.py) and
every round's tree is compared byte for byte with the first.

With `--trace 0` the last stdout line carries the end-to-end metrics, each
the median over rounds. With `--trace 1` rounds alternate untraced and
traced; a traced round runs `synth` and the eleven subcommands through
launcher.py, and the per-layer metrics (medians over traced rounds) are
derived from its spans. Progress goes to stderr. Exit code 0 means every
subcommand exited 0 and every check passed.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

ANALYSIS = ("ingest", "pairs", "calibrate", "fnmr", "det", "failures", "fuse",
            "lmm", "apc", "cv", "report")
ERROR_RATES = ("calibrate", "fnmr", "det", "failures", "fuse")
MODELS = ("lmm", "apc", "cv")
SETUP_REPS = 3
MIN_ROUNDS = 2
LAYERS = ("cli", "synth", "tableio", "core", "pairing", "metrics", "lmm",
          "validation", "svgplot")
MB = 1e6


class Runner:
    """Spawns longmatch processes from one checkout and records each one."""

    def __init__(self, root: Path):
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.launcher = str(HERE / "launcher.py")
        self.attempted = 0
        self.failed = 0

    def run(self, command: str, rundir: Path, spans: Path | None = None) -> dict:
        """Run one subcommand in `rundir`; wall, CPU and peak RSS of its process."""
        if spans is None:
            argv = [sys.executable, "-m", "longmatch.cli"]
        else:
            argv = [sys.executable, self.launcher, str(spans)]
        argv += [command, "--config", "config.json"]
        with open(rundir / f"{command}.log", "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=rundir, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            tail = (rundir / f"{command}.log").read_text(errors="replace")[-400:]
            print(f"{command} exited {proc.returncode}: {tail}", file=sys.stderr)
        return {"start": start, "end": end, "wall": end - start,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss * 1024 / MB}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check {name} FAILED: {detail}", file=sys.stderr)


def remove_workdir(base: Path) -> None:
    """Delete a run's work directory, and `.perfbench_runs/` once it is empty."""
    shutil.rmtree(base, ignore_errors=True)
    try:
        base.parent.rmdir()
    except OSError:
        pass  # another run is still using it


def new_rundir(path: Path, config: dict) -> Path:
    (path / "out").mkdir(parents=True)
    (path / "config.json").write_text(json.dumps(config, indent=1) + "\n",
                                      encoding="utf-8")
    return path


def tree_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def same_tree(a: Path, b: Path) -> tuple[bool, str]:
    """Byte-identical file sets and contents under `a` and `b`."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return False, f"file sets differ: {sorted(set(files_a) ^ set(files_b))[:5]}"
    _, mismatch, errors = filecmp.cmpfiles(a, b, [str(f) for f in files_a],
                                           shallow=False)
    if mismatch or errors:
        return False, f"contents differ: {(mismatch + errors)[:5]}"
    return True, ""


def analysis_round(runner: Runner, rundir: Path, traced: bool) -> dict:
    """The eleven analysis processes of one round, timed one by one."""
    procs = {}
    for command in ANALYSIS:
        spans = rundir / f"{command}.spans.json" if traced else None
        procs[command] = runner.run(command, rundir, spans)
    return procs


def end_to_end(procs: dict, out: Path) -> dict:
    return {
        "analysis_s": procs["report"]["end"] - procs["ingest"]["start"],
        "pairs_s": procs["pairs"]["wall"],
        "error_rates_s": sum(procs[c]["wall"] for c in ERROR_RATES),
        "models_s": sum(procs[c]["wall"] for c in MODELS),
        "peak_rss_mb": max(p["rss_mb"] for p in procs.values()),
        "cpu_s": sum(p["cpu"] for p in procs.values()),
        "output_mb": tree_bytes(out) / MB,
    }


E2E_UNITS = {"analysis_s": "s", "pairs_s": "s", "error_rates_s": "s",
             "models_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "cpu_s": "s", "output_mb": "MB"}


def span_metrics(traces: dict, spawned: dict) -> dict:
    """Per-layer metrics of one traced round from each process's spans.

    `traces` maps subcommand -> the launcher's JSON, `spawned` maps
    subcommand -> the monotonic time its process was spawned. Sums run
    over all twelve processes of the round (synth included).
    """
    total: dict[str, float] = {}
    count: dict[str, float] = {}
    cpu: dict[str, float] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    startup = 0.0
    for command, trace in traces.items():
        startup += trace["main_start"] - spawned[command]
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, span_cpu, counts in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, span_cpu, counts) in enumerate(spans):
            total[name] = total.get(name, 0.0) + (end - start)
            cpu[name] = cpu.get(name, 0.0) + span_cpu
            self_s[name.split(".")[0]] += (end - start) - child[i]
            count[name + "#calls"] = count.get(name + "#calls", 0) + 1
            for key, value in counts.items():
                count[f"{name}#{key}"] = count.get(f"{name}#{key}", 0) + value

    def t(name):
        return total.get(name, 0.0)

    def c(name, key):
        return count.get(f"{name}#{key}", 0)

    pairs_made = c("pairing.genuine", "rows") + c("pairing.impostor", "rows")
    pairing_s = t("pairing.genuine") + t("pairing.impostor") + t("pairing.attach_scores")
    fits = c("lmm.fit_reml", "calls")
    out = {
        "cli.startup_s": (startup, "s"),
        **{f"cli.cmd.{cmd}_s": (t(f"cli.cmd.{cmd}"), "s")
           for cmd in ("synth",) + ANALYSIS},
        "synth.generate_s": (t("synth.generate"), "s"),
        "synth.write_s": (t("cli.cmd.synth") - t("synth.generate"), "s"),
        "tableio.ingest_captures_s": (t("tableio.ingest_captures"), "s"),
        "tableio.ingest_scores_s": (t("tableio.ingest_scores"), "s"),
        "tableio.write_pairs_s": (t("tableio.write_pairs"), "s"),
        "tableio.read_pairs_s": (t("tableio.read_pairs"), "s"),
        "tableio.read_pairs_rows_per_s": (
            c("tableio.read_pairs", "rows") / max(t("tableio.read_pairs"), 1e-9), "1/s"),
        "tableio.pair_rows_read": (c("tableio.read_pairs", "rows"), "count"),
        "tableio.write_table_s": (t("tableio.write_table"), "s"),
        "tableio.bytes_written": (sum(c(f"tableio.{w}", "bytes") for w in (
            "write_captures", "write_scores", "write_pairs", "write_table")) / MB, "MB"),
        "core.validate_dataset_s": (t("core.validate_dataset"), "s"),
        "core.concat_s": (t("core.concat"), "s"),
        "pairing.genuine_s": (t("pairing.genuine"), "s"),
        "pairing.impostor_s": (t("pairing.impostor"), "s"),
        "pairing.attach_scores_s": (t("pairing.attach_scores"), "s"),
        "pairing.pairs_per_s": (pairs_made / max(pairing_s, 1e-9), "1/s"),
        "metrics.calibrate_s": (t("metrics.calibrate"), "s"),
        "metrics.fnmr_by_interval_s": (t("metrics.fnmr_by_interval"), "s"),
        "metrics.det_curve_s": (t("metrics.det_curve"), "s"),
        "metrics.failure_analysis_s": (t("metrics.failure_analysis"), "s"),
        "metrics.fuse_s": (t("metrics.fuse"), "s"),
        "lmm.fit_s": (t("lmm.fit_reml"), "s"),
        "lmm.fits": (fits, "count"),
        "lmm.s_per_fit": (t("lmm.fit_reml") / max(fits, 1), "s"),
        "lmm.iterations_per_fit": (c("lmm.fit_reml", "iterations") / max(fits, 1), "count"),
        "lmm.build_design_s": (t("lmm.build_design"), "s"),
        "lmm.compare_apc_s": (t("lmm.compare_apc"), "s"),
        "lmm.fit_cpu_s": (cpu.get("lmm.fit_reml", 0.0), "s"),
        "validation.kfold_cv_s": (t("validation.kfold_cv"), "s"),
        "validation.residual_diagnostics_s": (t("validation.residual_diagnostics"), "s"),
        "svgplot.render_s": (t("svgplot.render"), "s"),
        "svgplot.bytes_written": (c("svgplot.render", "bytes") / MB, "MB"),
    }
    out.update({f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS})
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # a terminated benchmark still stops its child process and cleans up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "longmatch" / "cli.py").is_file():
        print(f"error: {root} holds no longmatch source (src/longmatch/cli.py); "
              "run from the root of a longmatch checkout", file=sys.stderr)
        return 2

    config = workloads.config(args.workload, args.seed)
    base = root / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    runner = Runner(root)
    try:
        result = measure(runner, base, config, args)
    finally:
        remove_workdir(base)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(runner: Runner, base: Path, config: dict, args) -> dict | None:
    # set-up: synth several times; the median is setup_s
    setup_walls = []
    setups = []
    for rep in range(SETUP_REPS):
        rundir = new_rundir(base / f"setup{rep}", config)
        setup_walls.append(runner.run("synth", rundir)["wall"])
        setups.append(rundir)
    if runner.failed:
        return None
    inputs = setups[0] / "out"
    for other in setups[1:]:
        runner.check("synth_deterministic", *same_tree(inputs, other / "out"))
    print(f"setup: {[round(w, 3) for w in setup_walls]}", file=sys.stderr)

    plain: list[dict] = []      # end-to-end metrics of untraced rounds
    traced: list[dict] = []     # per-layer metrics of traced rounds
    traced_analysis: list[float] = []
    first_tree = None
    started = time.monotonic()
    last_round = 0.0
    n_round = 0
    while n_round < MIN_ROUNDS or time.monotonic() - started + last_round <= args.seconds:
        round_start = time.monotonic()
        is_traced = args.trace == 1 and n_round % 2 == 1
        rundir = new_rundir(base / f"round{n_round}", config)
        out = rundir / "out"
        traces_at = {}
        if is_traced:
            spans = rundir / "synth.spans.json"
            traces_at["synth"] = runner.run("synth", rundir, spans)["start"]
            runner.check("traced_synth_deterministic", *same_tree(inputs, out))
        else:
            shutil.copytree(inputs, out, dirs_exist_ok=True)
        procs = analysis_round(runner, rundir, is_traced)
        if runner.failed:
            return None
        metrics = end_to_end(procs, out)
        if is_traced:
            traces_at.update({c: procs[c]["start"] for c in ANALYSIS})
            traces = {c: json.loads((rundir / f"{c}.spans.json").read_text())
                      for c in traces_at}
            traced.append(span_metrics(traces, traces_at))
            traced_analysis.append(metrics["analysis_s"])
        else:
            plain.append(metrics)
        if first_tree is None:
            first_tree = out
            for name, ok, detail in checks.run_all(out, config):
                runner.check(name, ok, detail)
        else:
            runner.check("rounds_identical", *same_tree(first_tree, out))
            shutil.rmtree(rundir)
        print(f"round {n_round}{' traced' if is_traced else ''}: "
              f"{ {k: round(v, 3) for k, v in metrics.items()} }", file=sys.stderr)
        n_round += 1
        last_round = time.monotonic() - round_start

    if args.trace == 1:
        values = {k: statistics.median(t[k][0] for t in traced) for k in traced[0]}
        units = {k: unit for k, (_, unit) in traced[0].items()}
        values["trace.overhead_s"] = (statistics.median(traced_analysis)
                                      - statistics.median(m["analysis_s"] for m in plain))
        units["trace.overhead_s"] = "s"
    else:
        values = {k: statistics.median(m[k] for m in plain) for k in plain[0]}
        values["setup_s"] = statistics.median(setup_walls)
        units = E2E_UNITS
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


if __name__ == "__main__":
    sys.exit(main())
