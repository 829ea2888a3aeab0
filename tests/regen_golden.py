"""Regenerate tests/golden.json from this checkout: python tests/regen_golden.py

Writes the corpus of test_golden.py and runs every one of its calls, twice,
each time in a fresh temporary directory. The table is written only when
both runs agree; the rows that differ from the table before are printed,
so that a change meant to alter bytes can name each of them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from test_golden import CALLS, TABLE, digests, run_call, write_corpus  # noqa: E402


def build() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "in"
        corpus.mkdir()
        write_corpus(corpus)
        calls = {}
        for k, call in enumerate(CALLS):
            out = Path(tmp) / f"out{k}"
            out.mkdir()
            calls[call] = run_call(call, corpus, out)
        return {"inputs": digests(corpus), "calls": calls}


def main() -> int:
    table = build()
    if build() != table:
        print("two runs of the calls differ; the table is left as it was", file=sys.stderr)
        return 1
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {"inputs": {}, "calls": {}}
    for section in ("inputs", "calls"):
        for key in sorted(set(old[section]) | set(table[section])):
            if old[section].get(key) != table[section].get(key):
                print(f"changed {section[:-1]}: {key}")
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
