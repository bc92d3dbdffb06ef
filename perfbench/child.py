"""Entry point of the benchmark's child processes: ``child.py ROLE SPEC``.

Each (workload, worker count) runs in a process of its own, so the parent
reads that phase's own peak RSS.  A child prints one JSON object as the
last line of its standard output.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def setup_probe(workload: str, seed: int) -> None:
    """Fresh interpreter through import, input build and the first
    ``threshold_constants()``; prints ``ready`` when done."""
    if workload == "design-sweep":
        from workloads import sweep_setup

        sweep_setup(seed)
    elif workload == "mc-trial":
        from workloads import mc_setup

        mc_setup()
    else:
        import regretalloc.cli  # noqa: F401  (what the console script imports)
        from regretalloc import build_case_study, default_config, threshold_constants

        build_case_study(default_config())
        threshold_constants()
    print("ready", flush=True)


def import_probe() -> dict:
    start = time.perf_counter()
    import regretalloc.cli  # noqa: F401

    return {"import_s": time.perf_counter() - start}


def traced_result(tracer, label: str, spans_path: str, result: dict) -> dict:
    from spans import self_seconds
    from workloads import traced_modules_missing

    tracer.dump(Path(spans_path), label)
    return {
        **result,
        "self_s": self_seconds(tracer.spans),
        "missing_modules": traced_modules_missing(tracer.spans),
        "n_spans": len(tracer.spans),
    }


def main(role: str, spec: dict) -> dict | None:
    if role == "setup":
        setup_probe(spec["workload"], spec["seed"])
        return None
    if role == "import":
        return import_probe()
    if role == "design-sweep":
        from workloads import design_sweep

        return design_sweep(spec["seed"], spec["seconds"])
    if role == "mc-trial":
        from workloads import mc_trial

        return mc_trial(spec["seed"], spec["workers"], spec["seconds"], spec["reps"])
    if role == "layers":
        from layers import cli_layers, closed_form_layers, estimator_layers

        workdir = Path(spec["workdir"])
        return {**closed_form_layers(), **estimator_layers(), **cli_layers(workdir)}
    if role == "trial-layer":
        from layers import trial_layer

        return trial_layer(spec["workers"], spec["reps"])

    from spans import Tracer

    tracer = Tracer()
    if role == "design-sweep-traced":
        from workloads import design_sweep_traced

        result = design_sweep_traced(spec["seed"], spec["blocks"], tracer, Path(spec["workdir"]))
    elif role == "mc-trial-traced":
        from workloads import mc_trial_traced

        result = mc_trial_traced(
            spec["seed"], spec["workers"], spec["calls"], spec["reps"], tracer,
            Path(spec["workdir"]),
        )
    elif role == "cli-traced":
        import io

        import regretalloc.cli as cli

        tracer.install()
        try:
            with tracer.span("op.reproduce-cli"):
                code = cli.main(spec["argv"], out=io.StringIO())
        finally:
            tracer.uninstall()
        result = {"code": code}
    else:
        raise SystemExit(f"unknown role {role!r}")
    return traced_result(tracer, role, spec["spans"], result)


if __name__ == "__main__":
    out = main(sys.argv[1], json.loads(sys.argv[2]))
    if out is not None:
        print(json.dumps(out))
