"""Run one gyrocal command with the benchmark's span wrappers installed.

Usage: python bench/traced_child.py <spans.json> <gyrocal arguments...>

The traced half of the cli_calibrate workload starts this in place of
``python -m gyrocal`` so that a fresh process pays the same imports and
also records its layer spans, which it writes to <spans.json> on exit.
"""

import sys

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import gyrocal.cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        return gyrocal.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
