"""Run ``coarsegeom.cli.main(argv)`` with the library's layer functions traced.

Usage: python3 perfbench/cli_launcher.py SPANS.json SUBCOMMAND [ARGS...]

Times ``import coarsegeom.cli`` as span ``cli.import``, wraps the layer
functions (see tracing.LAYER_FUNCTIONS), runs the subcommand, writes
the spans to SPANS.json and exits with the subcommand's exit code.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import coarsegeom.cli as cli
    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else 1
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
