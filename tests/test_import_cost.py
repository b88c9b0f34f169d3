"""Start-up cost: the CLI and the server must not pull in multiprocessing.

Every codec path runs in-process, so nothing reachable from the entry
points needs a process pool; importing one costs tens of milliseconds
on every process start.  The check runs in a fresh interpreter so
modules other tests imported do not leak in.
"""

import json
import os
import subprocess
import sys

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

FORBIDDEN = ("multiprocessing", "concurrent.futures.process")


def test_entry_points_do_not_import_process_pools():
    code = (
        "import json, sys\n"
        "import repro.cli, repro.server.server\n"
        f"print(json.dumps([m for m in {FORBIDDEN!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []
