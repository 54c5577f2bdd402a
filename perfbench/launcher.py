"""Run one longmatch subcommand with spans around each layer's public functions.

    python perfbench/launcher.py SPANS_JSON SUBCOMMAND --config CONFIG ...

Imports `longmatch.cli`, replaces each layer function by a timing wrapper
in the namespace of every module that calls it (`longmatch.cli`,
`longmatch.synth`, `longmatch.lmm`, `longmatch.validation`), then calls
`longmatch.cli.main` with the remaining arguments and exits with its code.

A span is `[name, start, end, parent, cpu_s, counts]`: monotonic-clock
start and end (the clock is system-wide, so the caller can compare it with
the time it spawned this process), the index of the enclosing span (-1 for
none), the process CPU time spent inside it (all threads, so BLAS workers
count) and counts taken at the same boundary. Spans stay in memory and are
written to SPANS_JSON once, after `main` returns.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """`fn` recording one span per call; `count(result, args)` gives its counts."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.monotonic(), None, stack[-1] if stack else -1,
                    time.process_time(), {}]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                span[4] = time.process_time() - span[4]
                stack.pop()
            if count is not None:
                span[5] = count(result, args)
            return result

        return traced


def _rows(result, args):
    return {"rows": len(result)}


def _captures_rows(result, args):
    return {"rows": result.n_accepted}


def _bytes_at(position):
    def count(result, args):
        return {"bytes": os.path.getsize(args[position])}
    return count


def _attached(result, args):
    return {"rows": len(result.table) + len(result.incomplete)}


def _iterations(result, args):
    return {"iterations": result.iterations}


# (span name, count) per function name, grouped by the layer that defines it
_LAYER_FUNCTIONS = {
    "generate_longitudinal": ("synth.generate", None),
    "ingest_captures": ("tableio.ingest_captures", _captures_rows),
    "ingest_scores": ("tableio.ingest_scores", _rows),
    "read_pairs": ("tableio.read_pairs", _rows),
    "write_captures": ("tableio.write_captures", _bytes_at(1)),
    "write_scores": ("tableio.write_scores", _bytes_at(1)),
    "write_pairs": ("tableio.write_pairs", _bytes_at(1)),
    "write_table": ("tableio.write_table", _bytes_at(0)),
    "validate_dataset": ("core.validate_dataset", None),
    "generate_genuine_pairs": ("pairing.genuine", _rows),
    "generate_impostor_pairs": ("pairing.impostor", _rows),
    "attach_scores": ("pairing.attach_scores", _attached),
    "calibrate_threshold": ("metrics.calibrate", None),
    "fnmr_by_interval": ("metrics.fnmr_by_interval", None),
    "det_curve": ("metrics.det_curve", None),
    "failure_analysis": ("metrics.failure_analysis", None),
    "fuse_and_rule": ("metrics.fuse", None),
    "compare_apc": ("lmm.compare_apc", None),
    "fit_spec": ("lmm.fit_spec", None),
    "refit": ("lmm.refit", None),
    "fit_reml": ("lmm.fit_reml", _iterations),
    "build_design": ("lmm.build_design", None),
    "vif": ("lmm.vif", None),
    "format_fit_report": ("lmm.format_fit_report", None),
    "marginal_r2": ("lmm.marginal_r2", None),
    "kfold_subject_cv": ("validation.kfold_cv", None),
    "residual_diagnostics": ("validation.residual_diagnostics", None),
    "render": ("svgplot.render", _bytes_at(1)),
}

# the modules whose own global names are rebound to wrappers
_CALLERS = ("longmatch.cli", "longmatch.synth", "longmatch.lmm",
            "longmatch.validation")


def install(tracer: Tracer) -> None:
    """Rebind every layer function in the calling modules to a traced wrapper."""
    for module_name in _CALLERS:
        module = sys.modules[module_name]
        for attr, (name, count) in _LAYER_FUNCTIONS.items():
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, tracer.wrap(name, fn, count))

    from longmatch import cli
    from longmatch.core import ComparisonTable
    from longmatch.synth import GroundTruth

    ComparisonTable.concat = classmethod(
        tracer.wrap("core.concat", ComparisonTable.concat.__func__))
    GroundTruth.to_json = tracer.wrap("synth.write_truth", GroundTruth.to_json)
    for command, handler in list(cli._COMMANDS.items()):
        cli._COMMANDS[command] = tracer.wrap(f"cli.cmd.{command}", handler)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import longmatch.cli
    import longmatch.lmm
    import longmatch.synth
    import longmatch.validation

    tracer = Tracer()
    install(tracer)
    main_start = time.monotonic()
    code = tracer.wrap("cli.main", longmatch.cli.main)(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"main_start": main_start, "exit_code": code,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
