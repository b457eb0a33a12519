"""Traced ``repro-experiments`` process for the cli_table5 traced run.

Usage: ``python perfbench/cli_child.py SPANS_PATH ARGS...``

Runs the experiments CLI with ARGS exactly as ``python -m
repro.experiments.cli ARGS`` would, but records spans: the CLI import,
then every wrapped layer call (see ``spans.TARGETS``).  The spans are
written to SPANS_PATH as JSON when the CLI returns; the parent grafts them
under its own span for the whole process.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    with recorder.root("child"):
        index = recorder.begin("import.total", "import")
        import repro.experiments.cli as cli

        recorder.end(index)
        patches = spans.install(recorder)
        name = argv[0]
        cli.COMMANDS[name] = spans.wrap_spec(recorder, cli.COMMANDS[name])
        try:
            code = cli.main(argv)
        finally:
            patches.restore()
    sys.stdout.flush()
    Path(spans_path).write_text(
        json.dumps([list(span) for span in recorder.spans()]),
        encoding="utf-8",
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
