"""Start the program with the tracer's wrappers installed.

    python perfbench/bootstrap.py TRACE_DIR server -- serve --ckpt ...
    python perfbench/bootstrap.py TRACE_DIR labels -- --base-seed ...

``server`` runs ``repro.cli.main`` (the ``repro`` console entry point);
``labels`` runs ``labels_child.main``.  Spans land in TRACE_DIR as
``spans-<pid>.jsonl``; wrapper targets that no longer exist are listed
in ``missing.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    trace_dir, group, sep, *argv = sys.argv[1:]
    if sep != "--" or group not in ("server", "labels"):
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    from tracer import Tracer

    tracer = Tracer(trace_dir)
    if group == "server":
        layers.install_server(tracer)
    else:
        layers.install_labels(tracer)
    (Path(trace_dir) / "missing.json").write_text(json.dumps(tracer.missing))
    if group == "server":
        from repro.cli import main as program
    else:
        from labels_child import main as program
    return program(argv)


if __name__ == "__main__":
    sys.exit(main())
