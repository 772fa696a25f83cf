"""Pin every CLI output on a fixed argv corpus.

Each argv of ``ARGV`` runs in-process through ``weylkit.cli.cli_main``, and
its exit status, stdout and stderr go into one block of
``tests/data/cli_corpus.txt``.  ``--write`` rewrites that file; ``--check``
compares against it and prints a unified diff on any change, so a change to
what the CLI prints shows up as a diff of the data file.  Stdlib only:

    PYTHONPATH=src python tests/cli_corpus.py --check

The corpus covers every verb, every ``--algebra`` choice each verb takes,
n = 1, 2 and 3, a cheap case at each verb's cap of n and one past it, text
and ``--json`` output, and named refusals (exit 1).  It leaves out usage
errors (exit 2), whose text the interpreter's argparse writes, and
``verify --json``, which carries elapsed times.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import shlex
import sys
from pathlib import Path

from weylkit.cli import cli_main
from weylkit.verify import SUITE_NAMES

DATA = Path(__file__).resolve().parent / "data" / "cli_corpus.txt"

ARGV: list[list[str]] = [
    # nf: every algebra, the cap, and the three parse-time refusals
    ["nf", "--n", "1", "d1*x1"],
    ["nf", "--n", "1", "--algebra", "A", "d1*x1"],
    ["nf", "--n", "1", "--algebra", "C", "d1*x1"],
    ["nf", "--n", "1", "--algebra", "B!", "z*z"],
    ["nf", "--n", "1", "--algebra", "C!", "z*z"],
    ["nf", "--n", "1", "(x1+d1+z)^3"],
    ["nf", "--n", "2", "0"],
    ["nf", "--n", "2", "(x1+d2)^2"],
    ["nf", "--n", "2", "--algebra", "b!", "d2*x1 + x1*d2 + z*x2*z"],
    ["nf", "--n", "2", "--algebra", "C!", "--json", "x1*d2*z - z*d2*x1"],
    ["nf", "--n", "3", "--algebra", "A", "d3^2*x3^2"],
    ["nf", "--n", "3", "--json", "3/2 * z * x2"],
    ["nf", "--n", "1000", "d1000*x1000"],
    ["nf", "--n", "1001", "x1"],
    ["nf", "--n", "1", "x2"],
    ["nf", "--n", "1", "x1 +"],
    ["nf", "--n", "1", "--algebra", "A", "z"],
    # mul and comm: every algebra, and the refusals of a product too large to build
    ["mul", "--n", "1", "z", "x1*d1"],
    ["mul", "--n", "1", "--algebra", "A", "d1", "x1"],
    ["mul", "--n", "1", "--algebra", "C", "d1", "x1"],
    ["mul", "--n", "1", "--algebra", "B!", "x1", "d1"],
    ["mul", "--n", "1", "--algebra", "C!", "x1", "d1"],
    ["mul", "--n", "2", "--json", "x1 + d2", "d1*x2"],
    ["mul", "--n", "3", "1/2*x3", "2*d3 + 1/3"],
    ["mul", "--n", "1", "d1^9999", "x1^9999"],
    ["mul", "--n", "1001", "x1", "x1"],
    ["comm", "--n", "1", "d1", "x1"],
    ["comm", "--n", "1", "--algebra", "A", "d1", "x1"],
    ["comm", "--n", "1", "--algebra", "C", "d1", "x1"],
    ["comm", "--n", "1", "--algebra", "B!", "x1", "d1"],
    ["comm", "--n", "1", "--algebra", "C!", "x1", "z"],
    ["comm", "--n", "2", "--json", "x1*d1", "x1*d2 + d1"],
    ["comm", "--n", "1", "d1^9999", "x1^9999"],
    # dims
    ["dims", "--n", "1", "--algebra", "A"],
    ["dims", "--n", "2"],
    ["dims", "--n", "3", "--algebra", "C", "--json"],
    ["dims", "--n", "2", "--algebra", "B!"],
    ["dims", "--n", "3", "--algebra", "C!", "--json"],
    ["dims", "--n", "1000", "--algebra", "C"],
    ["dims", "--n", "1001"],
    # center
    ["center", "--n", "1"],
    ["center", "--n", "2", "--json"],
    ["center", "--n", "3"],
    ["center", "--n", "4"],
    ["center", "--n", "5"],
    # dual
    ["dual", "--n", "1"],
    ["dual", "--n", "1", "--algebra", "C"],
    ["dual", "--n", "2", "--json"],
    ["dual", "--n", "3", "--algebra", "c"],
    ["dual", "--n", "13"],
    # nakayama
    ["nakayama", "--n", "1"],
    ["nakayama", "--n", "2", "--json"],
    ["nakayama", "--n", "3"],
    ["nakayama", "--n", "4"],
    # the localization verbs
    ["homogenize", "--n", "1", "0"],
    ["homogenize", "--n", "1", "5"],
    ["homogenize", "--n", "1", "x1*d1+1"],
    ["homogenize", "--n", "2", "d2*x2 + x1 + 1"],
    ["homogenize", "--n", "2", "--json", "x1*d2 - 3"],
    ["homogenize", "--n", "3", "--algebra", "B", "d3*x3^2 - x1"],
    ["homogenize", "--n", "1", "z"],
    ["dehomogenize", "--n", "1", "z^3*x1"],
    ["dehomogenize", "--n", "1", "x1*d1 - d1*x1"],
    ["dehomogenize", "--n", "2", "--json", "z^2 + x1*d2*z"],
    ["theta", "--n", "1", "x1*d1 + z^2"],
    ["theta", "--n", "1", "0"],
    ["theta", "--n", "2", "--json", "z*x1 + x2*d2"],
    ["theta", "--n", "1", "z^10000000"],
    ["theta", "--n", "1", "x1 + z^2"],
    ["mu", "--n", "1", "x1*d1 + 1"],
    ["mu", "--n", "1", "0"],
    ["mu", "--n", "1", "x1", "2"],
    ["mu", "--n", "1", "x1", "-3"],
    ["mu", "--n", "2", "--json", "d1*x2", "1"],
    ["mu", "--n", "3", "x3 + 1", "0"],
    # verify: each suite at n = 2, all of them at n = 1, and the refusals
    *(["verify", suite, "--n", "2", "--seed", "1729"] for suite in SUITE_NAMES),
    ["verify", "all", "--n", "1", "--seed", "1729", "--budget", "10"],
    ["verify", "center", "--n", "3", "--seed", "7", "--budget", "20"],
    ["verify", "bogus", "--n", "1"],
    ["verify", "pbw-laws", "--n", "4"],
]


def run(argv: list[str]) -> str:
    """One corpus block: the command line, then the exit status, stdout and stderr of ``cli_main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli_main(argv)
    lines = [f"$ weylkit {shlex.join(argv)}", f"exit {status}"]
    for label, stream in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
        lines.append(f"{label}:")
        lines += ["  " + line for line in stream.splitlines()]
        if stream and not stream.endswith("\n"):
            lines.append("(no newline at end)")
    return "\n".join(lines) + "\n"


def render_corpus() -> str:
    return "\n".join(run(argv) for argv in ARGV)


def check() -> list[str]:
    """The unified diff of the stored corpus against a fresh run; empty when they agree."""
    want, got = DATA.read_text(encoding="utf-8"), render_corpus()
    return list(difflib.unified_diff(want.splitlines(), got.splitlines(), DATA.name, "fresh run", lineterm=""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write or check the CLI output corpus")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help=f"rewrite {DATA.name}")
    mode.add_argument("--check", action="store_true", help=f"compare against {DATA.name}")
    args = parser.parse_args(argv)
    if args.write:
        DATA.write_text(render_corpus(), encoding="utf-8")
        print(f"wrote {len(ARGV)} blocks to {DATA}")
        return 0
    diff = check()
    print("\n".join(diff) if diff else f"{len(ARGV)} blocks match {DATA.name}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
