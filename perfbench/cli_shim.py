"""Run the polychow CLI with the benchmark's tracer installed.

    python3 perfbench/cli_shim.py SPANS_FILE SUBCOMMAND ARGS...

The traced cli-batch run starts each child through this file instead of
`python -m polychow.cli`. It times the import of `polychow.cli`, wraps the
same functions the in-process tracer wraps, calls `polychow.cli.main`, and
writes the child's spans to SPANS_FILE. `src` must be on PYTHONPATH.
"""

import sys
from time import perf_counter


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    started = perf_counter()
    import polychow.cli
    import_ms = (perf_counter() - started) * 1000.0

    from tracing import Tracer

    tracer = Tracer(outside_ops=True)
    tracer.install(polychow)
    try:
        return polychow.cli.main(argv)
    finally:
        tracer.dump_child(spans_file, import_ms)


if __name__ == "__main__":
    raise SystemExit(main())
