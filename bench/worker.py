"""One pass of one workload in a fresh interpreter; prints one JSON line.

Usage: python3 bench/worker.py --workload NAME --seed N [--scale full|tiny]
                               [--trace --spans-out FILE.jsonl.gz]

`bench/run.py` starts this with `src` on PYTHONPATH.  With --trace, the
package is wrapped by `tracer.Tracer` before the pass and the per-layer
metrics are added under "layers", their times at the reference speed.
"""

from __future__ import annotations

import argparse
import json
import resource

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=workloads.SCALES)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import METRICS, Tracer

        tracer = Tracer()
        tracer.install()
    result = workloads.run_pass(args.workload, args.seed, args.scale)
    if tracer is not None:
        # span times are measured; rescale them by the pass's own ratio of
        # time at the reference speed to measured time
        speed = result["norm_s"] / result["wall_s"]
        result["layers"] = {
            name: {"value": value * speed if METRICS[name] == "s" else value, "unit": METRICS[name]}
            for name, value in tracer.metrics().items()
        }
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
