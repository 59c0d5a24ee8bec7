"""One benchmark sample: a fresh process doing what `verify run` does.

Usage: python3 child.py '<json spec>'

The spec names the source tree, the run configuration, an optional
cache directory to fill during set-up, and whether to trace.  The child
prints `ready` once set-up is done (so the parent can time set-up from
spawn), then runs `report.run` and `report.render_report(..., "json")`
and prints one JSON line with its measurements and the canonical report.
A spec with "setup_only" stops after `ready`.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(spec: dict) -> dict | None:
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    from pentangle import probe, report
    import_s = time.perf_counter() - t0
    if not Path(report.__file__).resolve().is_relative_to(
            Path(spec["src"]).resolve()):
        raise SystemExit("pentangle was imported from %s, not from %s"
                         % (report.__file__, spec["src"]))

    config = report.make_config(**spec["config"])
    fill_s = 0.0
    if config.cache_dir is not None:
        t1 = time.perf_counter()
        for p, a in report.resolve_pairs(config):
            probe.scan_curve(p, a, cache_dir=config.cache_dir)
        fill_s = time.perf_counter() - t1
    print("ready", flush=True)
    if spec.get("setup_only"):
        return None

    tracer = None
    if spec.get("trace"):
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)

    t2 = time.perf_counter()
    result = report.run(config)
    text = report.render_report(result, "json")
    run_s = time.perf_counter() - t2

    out = {
        "run_s": run_s,
        "import_s": import_s,
        "cache_fill_s": fill_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "report": json.loads(text),
    }
    if tracer is not None:
        out["trace"] = {"stats": tracer.stats, "counts": tracer.counts}
    return out


if __name__ == "__main__":
    outcome = main(json.loads(sys.argv[1]))
    if outcome is not None:
        print(json.dumps(outcome, sort_keys=True), flush=True)
