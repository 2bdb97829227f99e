"""One trace-cold cell in a fresh process, traced or profiled.

Runs ``repro.cli.main`` with the same arguments the timed run passes
to ``python -m repro``, after wrapping the public calls of each layer
(see ``spans.install_layer_wraps``), and writes the spans as JSON when
it is done. With ``--profile`` it runs the cell under cProfile instead
and writes the profile.

    python3 perfbench/cell_child.py --spans OUT.json -- run trace-phase ...
"""

import argparse
import json
import sys
import time

import spans as spanlib


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--profile", default=None)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    if args.profile:
        def cell() -> int:
            import repro.cli

            return repro.cli.main(cli_argv)

        code, stats = spanlib.profile_call(cell)
        stats.dump_stats(args.profile)
        return code

    tracer = spanlib.Tracer()
    # installing the wraps imports the modules the CLI would otherwise
    # import lazily inside main(); that is import time too
    with tracer.span("cli.import"):
        import repro.cli
        spanlib.install_layer_wraps(tracer)
    tracer.wrap(repro.cli, "build_parser", "cli.parse")
    code = repro.cli.main(cli_argv)
    finished = time.process_time()
    tracer.restore()
    if args.spans:
        with open(args.spans, "w") as fh:
            json.dump({"finished": finished,
                       "spans": tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
