"""Import hygiene of the CLI start path.

Importing ``repro.experiments.cli`` is most of the wall time of a
``repro-experiments`` run that does no Bayesian assessment.  These tests
pin what that import must leave out: scipy (about 1 s for
``scipy.stats``), the lint analyzer and the asyncio substrate.  Each one
runs in a fresh interpreter, since the test process has long since
imported all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules (and their submodules) the CLI import must not load.
DEFERRED = ("scipy", "repro.lint.engine", "repro.lint.program", "asyncio")

PROBE = """
import json
import sys

deferred = json.loads(sys.argv[1])


def loaded():
    return sorted(
        name
        for name in sys.modules
        if any(name == root or name.startswith(root + ".") for root in deferred)
    )


import repro.experiments.cli

after_import = loaded()
deferred = ["scipy"]
code = repro.experiments.cli.main(["table5", "--fast", "--no-cache"])
print(json.dumps({"after_import": after_import, "code": code,
                  "after_table5": loaded()}))
"""


def test_cli_start_path_leaves_heavy_modules_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(DEFERRED)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["after_import"] == []
    assert report["code"] == 0
    assert "Table 5" in result.stdout
    # table5 never assesses confidence, so scipy stays unloaded.
    assert report["after_table5"] == []
