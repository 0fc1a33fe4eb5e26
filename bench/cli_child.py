"""Run the camt command in a fresh process: python cli_child.py RECORD TRACE camt-args...

Does what `python -m camt camt-args...` does (import camt.cli, call its
main) and exits with the command's exit code. Before exiting it writes
RECORD, a JSON file with the process's own peak resident size and, when
TRACE is 1, the spans of camt's public functions, including one for
importing camt.cli.
"""

import json
import sys

from tracing import Tracer, peak_rss_mb


def main():
    record_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = Tracer()
    tracer.op = 0
    with tracer.span("cli.import"):
        import camt.cli
    if traced:
        tracer.install()
    try:
        code = camt.cli.main(argv)
    finally:
        tracer.uninstall()
    record = {"peak_rss_mb": peak_rss_mb(), "overhead_s": tracer.overhead_s,
              "spans": [vars(s) for s in tracer.spans] if traced else []}
    with open(record_path, "w") as out:
        json.dump(record, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
