"""Recompute the pinned digests in answers.json from the current program.

Usage: python3 perfbench/pin.py

Run it only for a change that is meant to alter certificate or CLI output
bytes, and say so in that change: the digests guard byte-identical output.
The exact-search table holds answers known from theory and is left as it is.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402


def geometry_digests() -> dict:
    out = {}
    for size in ("full", "tiny"):
        state = wl.geometry_setup(DEFAULT_SEED, size, Path("."))
        ops = {op.label: op for op in wl.geometry_ops(_unpinned(state))}
        for inp, *_ in state.inputs:
            for step in ("construct", "interactions"):
                ops[f"{inp.label} {step}"].call()
            out[inp.label] = {
                kind: wl.sha256(ops[f"{inp.label} {kind}"].call().to_json_lines().encode())
                for kind in ("sweep", "holographic")
            }
    return out


def cli_digests() -> dict:
    out = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        state = wl.cli_setup(DEFAULT_SEED, "full", Path(tmp) / "work")
        for label, argv in state.inputs:
            res = wl.run_cli(argv)
            out[label] = {"exit": res.exit_code, "sha256": wl.cli_digest(res, argv)}
    return out


def _unpinned(state):
    state.answers = {inp.label: {"sweep": "", "holographic": ""} for inp, *_ in state.inputs}
    return state


def main() -> int:
    answers = wl.load_answers()
    answers["geometry-scale"] = geometry_digests()
    answers["cli-pipeline"] = cli_digests()
    wl.ANSWERS.write_text(json.dumps(answers, indent=2, sort_keys=False) + "\n")
    print(f"wrote {wl.ANSWERS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
