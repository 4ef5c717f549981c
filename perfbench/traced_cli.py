"""Run one ``stsad`` CLI stage with the span tracer installed.

usage: python3 perfbench/traced_cli.py SPANS_JSON RUN_ID STAGE --config CFG

The arguments after RUN_ID go to ``stsad.cli.main`` unchanged; the spans are
written to SPANS_JSON when the stage returns, also when it fails.
"""

import sys

from tracer import Tracer


def main():
    spans_path, run_id, *argv = sys.argv[1:]
    tracer = Tracer(run_id)
    tracer.install()
    import stsad.cli

    try:
        return stsad.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
