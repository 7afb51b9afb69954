"""Run the gramsel CLI with a span around each function in spans.TARGETS.

    python3 perfbench/traced_cli.py SPANS_JSON [gramsel arguments ...]

gramsel must be importable (the benchmark puts ``src`` on PYTHONPATH).
The spans go to SPANS_JSON when the command ends; the exit code is the
CLI's own.
"""

import sys

from spans import Tracer


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    try:
        with tracer.installed():
            from gramsel import cli

            return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
