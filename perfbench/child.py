"""One measured CLI run, in a fresh interpreter started by run.py.

    python3 perfbench/child.py <mode> <result.json> <src dir> -- <cli args>

mode is "import" (import the CLI and exit: warms the bytecode and file
caches), "plain" (untraced run) or "trace" (every gaugelatt layer wrapped
in spans, see layers.py).  The result file records the monotonic clock
right after ``gaugelatt.cli`` was imported, the import and ``cli.main``
durations, the exit code and, when traced, the per-layer values.
Only ``sys`` and ``time`` are imported before the CLI, so the set-up time
run.py derives is interpreter start plus gaugelatt's own imports.
"""

import sys
import time


def main() -> int:
    mode, result_path, src = sys.argv[1:4]
    argv = sys.argv[5:]
    sys.path.insert(0, src)
    t0 = time.monotonic()
    import gaugelatt.cli as cli
    t_imported = time.monotonic()

    import json
    from pathlib import Path
    if Path(src).resolve() not in Path(cli.__file__).resolve().parents:
        print(f"gaugelatt was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    record = {"t_imported": t_imported, "import_s": t_imported - t0}
    tracer = None
    if mode == "trace":
        import layers
        from tracing import Tracer
        tracer = Tracer()
        layers.install(tracer)
    if mode != "import":
        start = time.monotonic()
        try:
            record["rc"] = cli.main(argv)
        finally:
            record["compute_s"] = time.monotonic() - start
            if tracer is not None:
                tracer.restore()
                record["layers"] = layers.layer_metrics(tracer)
            Path(result_path).write_text(json.dumps(record))
        return record["rc"]
    Path(result_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
