"""Run one traced ``conecalc`` CLI call.

Usage: python cli_child.py SPANS_JSON ARG...

Wraps the public functions the benchmark measures, calls
``conecalc.cli.main(ARG...)`` and writes its spans to SPANS_JSON once at
exit.  The exit code and stdout are the CLI's own.
"""

import sys

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    tracer.instrument(t)
    from conecalc import cli

    try:
        return cli.main(argv)
    finally:
        t.close()
        t.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
