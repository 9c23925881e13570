"""Run one `fedper run` federation in this (fresh) process and write its
timing as JSON.  Started by run.py once per measured run.

    python3 child.py --mode plain|trace|profile --config CFG --out DIR \
        --threads N --run-id ID --result RESULT.json [--spans SPANS.jsonl]

plain   wraps only run_federation, to split set-up from the federation phase.
trace   wraps every layer in spans.TRACE_TARGETS and writes the spans as JSON
        lines at exit.
profile runs plain under cProfile and prints the top rows to stdout.

The exit code is the program's.  Interpreter start-up and the import of
fedper are outside the timed interval.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import resource
import sys
import time

import spans

PROFILE_ROWS = 30


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("plain", "trace", "profile"), required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import fedper.cli

    targets = spans.TRACE_TARGETS if args.mode == "trace" else spans.PHASE_TARGETS
    tracer = spans.Tracer(args.run_id)
    run_argv = ["run", "--config", args.config, "--out", args.out, "--threads", str(args.threads)]
    profiler = cProfile.Profile() if args.mode == "profile" else None
    with spans.patched(targets, tracer) as missing:
        if profiler is not None:
            profiler.enable()
        t0 = time.perf_counter()
        code = fedper.cli.main(run_argv)
        t1 = time.perf_counter()
        if profiler is not None:
            profiler.disable()

    federation = tracer.first(spans.FEDERATION_SPAN)
    result = {
        "run_id": args.run_id,
        "exit_code": code,
        "wall_s": t1 - t0,
        "setup_s": None if federation is None else federation.start - t0,
        "federation_s": None if federation is None else federation.duration,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "unpatched": missing,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    if args.spans:
        with open(args.spans, "w") as fh:
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")
    if profiler is not None:
        buf = io.StringIO()
        pstats.Stats(profiler, stream=buf).sort_stats("tottime").print_stats(PROFILE_ROWS)
        print(buf.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
