"""The command-line pipeline: train, eval, simulate, and a discount sweep.

Each command writes its artifacts plus its own manifest, `manifest_<command>.json`,
under the output directory; identical configurations and seeds reproduce the
artifacts byte for byte.
"""

import json
import sys
import tempfile
from pathlib import Path

from supportq.cli import main


def run(argv: list[str]) -> None:
    """Run one supportq command; stop the demo with its exit code on failure."""
    code = main(argv)
    if code != 0:
        sys.exit(code)


common = ["--mode", "env", "--reward", "imit", "--demo-episodes", "60",
          "--epochs", "2", "--eval-episodes", "30", "--seed", "7"]

with tempfile.TemporaryDirectory(prefix="supportq-demo-") as tmp:
    root = Path(tmp)
    run_dir = root / "run"
    print(f"artifacts under {root} (removed at exit)\n")
    print("== train ==")
    run(["train", *common, "--out-dir", str(run_dir)])

    print("\n== eval ==")
    run(["eval", "--checkpoint", str(run_dir / "checkpoint.npz"), *common, "--out-dir", str(run_dir)])
    report = json.loads((run_dir / "report.json").read_text())
    print(f"report.json keys: {sorted(k for k in report if not isinstance(report[k], list))}")

    print("\n== simulate ==")
    run(["simulate", "--checkpoint", str(run_dir / "checkpoint.npz"), "--episodes", "40",
         *common, "--out-dir", str(run_dir)])

    print("\n== sweep over discount factors ==")
    run(["sweep", "--gammas", "0.75,0.85,0.95", *common, "--out-dir", str(root / "sweep")])

    print("\nfiles written:")
    for path in sorted(run_dir.iterdir()):
        print(f"  {path.name}")
