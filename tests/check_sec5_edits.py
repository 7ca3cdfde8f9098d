"""Pin the `check` and `solve` runs of the 112 single-entry edits of
problems/paper-sec5.tfl: each entry of f, g1 and g2 replaced by one of
0, 1, x1, x3, x4 and x1*x2 where that differs.

Each run goes through `tflkit.cli.main` in-process, and its exit code and
the sha256 of its stdout and stderr are compared with
tests/data/sec5_edit_digests.json.  Exits 1 on any mismatch.  Stdlib only
(besides tflkit itself), so it runs with sympy blocked as well.

    PYTHONPATH=src python tests/check_sec5_edits.py          # compare
    PYTHONPATH=src python tests/check_sec5_edits.py --write  # re-record
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from tflkit.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
SEC5 = ROOT / "problems" / "paper-sec5.tfl"
DIGESTS = ROOT / "tests" / "data" / "sec5_edit_digests.json"
FIELDS = ("f", "g1", "g2")
REPLACEMENTS = ("0", "1", "x1", "x3", "x4", "x1*x2")


def edited_texts():
    """(edit name, problem text) for each single-entry edit, in order."""
    lines = SEC5.read_text(encoding="utf-8").splitlines(keepends=True)
    for n, line in enumerate(lines):
        name, sep, rhs = line.partition("=")
        if not sep or name.strip() not in FIELDS:
            continue
        entries = [e.strip() for e in rhs.split(",")]
        for i, old in enumerate(entries):
            for text in REPLACEMENTS:
                if text == old:
                    continue
                new = entries[:i] + [text] + entries[i + 1:]
                edited = (lines[:n] + [f"{name.strip()} = {', '.join(new)}\n"]
                          + lines[n + 1:])
                yield f"{name.strip()}[{i}] = {text}", "".join(edited)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(command, path):
    """[exit code, sha256(stdout), sha256(stderr)] of `tflkit <command>
    <path>` through `cli.main`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        code = cli_main([command, str(path)])
    return [code, _sha(stdout.getvalue()), _sha(stderr.getvalue())]


def run_all():
    """{"<edit> <command>": [exit code, sha256(stdout), sha256(stderr)]}."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edit.tfl"
        for edit, text in edited_texts():
            path.write_text(text, encoding="utf-8")
            for command in ("check", "solve"):
                out[f"{edit} {command}"] = run_cli(command, path)
    return out


def compare(got, digests, argv):
    """With --write in `argv`, record `got` in the file `digests` and
    return None; otherwise print each run whose digests differ from the
    recorded ones and return how many do."""
    if "--write" in argv:
        digests.write_text(json.dumps(got, indent=1) + "\n",
                           encoding="utf-8")
        print(f"wrote {len(got)} digests to {digests}")
        return None
    want = json.loads(digests.read_text(encoding="utf-8"))
    bad = sorted(k for k in want.keys() | got.keys()
                 if want.get(k) != got.get(k))
    for key in bad:
        print(f"mismatch: {key}: expected {want.get(key)}, got {got.get(key)}")
    return len(bad)


def main(argv):
    got = run_all()
    bad = compare(got, DIGESTS, argv)
    if bad is None:
        return 0
    codes = {}
    for key, (code, _, _) in got.items():
        if key.endswith(" solve"):
            codes[code] = codes.get(code, 0) + 1
    print(f"{len(got)} runs, {bad} mismatches; solve exit codes "
          + ", ".join(f"{n}x{c}" for c, n in sorted(codes.items())))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
