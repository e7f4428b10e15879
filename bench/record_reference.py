"""Write reference.json: the exact views of the recorded tasks, at seed 0.

Run from the repository root at the commit whose results are the reference:

    python3 bench/record_reference.py

Views are exact and independent of the seed; the runner checks every
later run against this file.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, SRC, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    reference = {}
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=Path(__file__).parent))
    try:
        for name in WORKLOADS:
            for task in workloads.build(name, ROOT, 0, workdir).tasks:
                if task.recorded:
                    reference[task.name] = task.view(task.run(0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    workloads.REFERENCE_PATH.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
